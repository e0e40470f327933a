package workload

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/keys"
	"xpointdb/internal/sim"
)

// mapKV is a trivial thread-safe KV for driving the runner.
type mapKV struct {
	mu sync.Mutex
	m  map[string][]byte
	// missEvery makes every n-th Get miss, to exercise miss counting.
	gets      int
	missEvery int
}

var errNotFound = errors.New("engine: key not found")

func (kv *mapKV) Get(key []byte) ([]byte, error) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.gets++
	if kv.missEvery > 0 && kv.gets%kv.missEvery == 0 {
		return nil, errNotFound
	}
	if v, ok := kv.m[string(key)]; ok {
		return v, nil
	}
	return nil, errNotFound
}

func (kv *mapKV) Put(key, value []byte) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.m[string(key)] = value
	return nil
}

func newMapKV() *mapKV { return &mapKV{m: make(map[string][]byte)} }

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func TestKeyValueGenerators(t *testing.T) {
	if string(Key(42)) != "user000000000042" {
		t.Fatalf("Key(42) = %q", Key(42))
	}
	if len(Key(1)) != 16 {
		t.Fatalf("key length %d", len(Key(1)))
	}
	v1 := Value(7, 1024)
	v2 := Value(7, 1024)
	if !bytes.Equal(v1, v2) {
		t.Fatal("Value not deterministic")
	}
	if bytes.Equal(Value(7, 64), Value(8, 64)) {
		t.Fatal("distinct keys share values")
	}
	if len(v1) != 1024 {
		t.Fatalf("value length %d", len(v1))
	}
}

func TestPreloadWritesAllKeys(t *testing.T) {
	kv := newMapKV()
	if err := Preload(kv, 100, 64); err != nil {
		t.Fatal(err)
	}
	if len(kv.m) != 100 {
		t.Fatalf("preloaded %d keys", len(kv.m))
	}
	if !bytes.Equal(kv.m[string(Key(7))], Value(7, 64)) {
		t.Fatal("preloaded value mismatch")
	}
}

func TestRunMixUnderSim(t *testing.T) {
	// Under the sim clock the driven KV must charge virtual time per
	// op (a zero-cost KV would spin forever at one instant); timedKV
	// charges 1 ms per operation.
	k := sim.New(t0)
	kv := &timedKV{k: k, inner: newMapKV()}
	var res *Result
	k.Run(func() {
		Preload(kv.inner, 1000, 64)
		res = Run(k, kv, Config{
			Workers:   4,
			ReadRatio: 0.7,
			Duration:  2 * time.Second,
			KeySpace:  1000,
			ValueSize: 64,
			Seed:      1,
		})
	})
	// 4 workers × 2s / 1ms = ~8000 ops.
	if res.Ops() < 7000 || res.Ops() > 9000 {
		t.Fatalf("ops = %d, want ≈8000", res.Ops())
	}
	if res.Duration < 2*time.Second {
		t.Fatalf("run duration %v < configured", res.Duration)
	}
}

func TestRunMixRealClock(t *testing.T) {
	kv := newMapKV()
	Preload(kv, 500, 64)
	res := Run(clock.Real{}, kv, Config{
		Workers:   4,
		ReadRatio: 0.5,
		Duration:  50 * time.Millisecond,
		KeySpace:  500,
		ValueSize: 64,
		Seed:      2,
	})
	if res.Ops() == 0 {
		t.Fatal("no operations performed")
	}
	if res.Reads == 0 || res.Writes == 0 {
		t.Fatalf("mix skewed: reads=%d writes=%d", res.Reads, res.Writes)
	}
	frac := float64(res.Reads) / float64(res.Ops())
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("read fraction %.2f far from 0.5", frac)
	}
	if res.Errors != 0 {
		t.Fatalf("errors: %d", res.Errors)
	}
	if res.ReadLat.Count() != res.Reads || res.WriteLat.Count() != res.Writes {
		t.Fatal("latency histograms don't match op counts")
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput not positive")
	}
}

func TestReadRatioZeroAndOne(t *testing.T) {
	kv := newMapKV()
	Preload(kv, 100, 16)
	res := Run(clock.Real{}, kv, Config{
		Workers: 2, ReadRatio: 0, Duration: 20 * time.Millisecond,
		KeySpace: 100, ValueSize: 16, Seed: 3,
	})
	if res.Reads != 0 || res.Writes == 0 {
		t.Fatalf("write-only run: reads=%d writes=%d", res.Reads, res.Writes)
	}
	res = Run(clock.Real{}, kv, Config{
		Workers: 2, ReadRatio: 1, Duration: 20 * time.Millisecond,
		KeySpace: 100, ValueSize: 16, Seed: 4,
	})
	if res.Writes != 0 || res.Reads == 0 {
		t.Fatalf("read-only run: reads=%d writes=%d", res.Reads, res.Writes)
	}
}

func TestMissCounting(t *testing.T) {
	kv := newMapKV()
	kv.missEvery = 2
	Preload(kv, 100, 16)
	res := Run(clock.Real{}, kv, Config{
		Workers: 1, ReadRatio: 1, Duration: 20 * time.Millisecond,
		KeySpace: 100, ValueSize: 16, Seed: 5,
	})
	if res.ReadMisses == 0 {
		t.Fatal("misses not counted")
	}
	if res.Errors != 0 {
		t.Fatal("not-found counted as error")
	}
}

func TestBurstChangesRatioOverTime(t *testing.T) {
	// Under the sim clock with a time-charging KV we can verify the
	// burst schedule precisely. Use a KV that charges 1ms per op.
	k := sim.New(t0)
	kv := &timedKV{k: k, inner: newMapKV()}
	var res *Result
	k.Run(func() {
		res = Run(k, kv, Config{
			Workers:   1,
			ReadRatio: 1.0, // outside bursts: all reads
			Duration:  4 * time.Second,
			KeySpace:  100,
			ValueSize: 16,
			Seed:      6,
			Burst: &BurstConfig{
				Period:         2 * time.Second,
				BurstLen:       time.Second,
				BurstReadRatio: 0, // inside bursts: all writes
			},
		})
	})
	if res.Writes == 0 || res.Reads == 0 {
		t.Fatalf("burst never switched the mix: reads=%d writes=%d", res.Reads, res.Writes)
	}
	// Bursts cover half the run.
	wfrac := float64(res.Writes) / float64(res.Ops())
	if wfrac < 0.3 || wfrac > 0.7 {
		t.Fatalf("write fraction %.2f, want ≈0.5", wfrac)
	}
}

type timedKV struct {
	k     *sim.Kernel
	inner *mapKV
}

func (t *timedKV) Get(key []byte) ([]byte, error) {
	t.k.Sleep(time.Millisecond)
	return t.inner.Get(key)
}

func (t *timedKV) Put(key, value []byte) error {
	t.k.Sleep(time.Millisecond)
	return t.inner.Put(key, value)
}

func TestRunRawCountsOps(t *testing.T) {
	k := sim.New(t0)
	dev := &fakeDev{k: k}
	var res *Result
	k.Run(func() {
		res = RunRaw(k, dev, 4, 0.5, time.Second, 7)
	})
	if res.Ops() == 0 {
		t.Fatal("raw run did nothing")
	}
	if res.Reads == 0 || res.Writes == 0 {
		t.Fatalf("raw mix: %d/%d", res.Reads, res.Writes)
	}
	// 4 workers × (1s / 100µs) = ~40000 ops expected.
	if res.Ops() < 30000 || res.Ops() > 50000 {
		t.Fatalf("raw ops = %d, want ≈40000", res.Ops())
	}
}

type fakeDev struct{ k *sim.Kernel }

func (d *fakeDev) Read(n int)  { d.k.Sleep(100 * time.Microsecond) }
func (d *fakeDev) Write(n int) { d.k.Sleep(100 * time.Microsecond) }

// batchKV adds Apply and MultiGet to mapKV and records how the runner
// shaped each batch.
type batchKV struct {
	*mapKV
	keySpace, shards    int
	unsynced, misplaced int
	applies, multiGets  int
}

func (kv *batchKV) checkSpread(ks [][]byte) {
	for j, k := range ks {
		s := j % kv.shards
		lo, hi := string(Key(kv.keySpace*s/kv.shards)), string(Key(kv.keySpace*(s+1)/kv.shards))
		if string(k) < lo || string(k) >= hi {
			kv.misplaced++
		}
	}
}

func (kv *batchKV) Apply(b *batch.Batch, syncWAL bool) error {
	var ks [][]byte
	_ = b.Iterate(func(_ keys.Kind, k, v []byte) error {
		ks = append(ks, k)
		return kv.mapKV.Put(k, v)
	})
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.applies++
	if !syncWAL {
		kv.unsynced++
	}
	kv.checkSpread(ks)
	return nil
}

func (kv *batchKV) MultiGet(ks ...[]byte) ([][]byte, []error) {
	vals := make([][]byte, len(ks))
	errs := make([]error, len(ks))
	for i, k := range ks {
		vals[i], errs[i] = kv.mapKV.Get(k)
	}
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.multiGets++
	kv.checkSpread(ks)
	return vals, errs
}

// TestBatchKeysSpanEveryShard: with BatchKeys set, every op is one
// batch whose key j comes from shard j mod Shards; writes are synced
// Applies and reads are MultiGets checked against Value.
func TestBatchKeysSpanEveryShard(t *testing.T) {
	const keySpace, shards = 400, 4
	kv := &batchKV{mapKV: newMapKV(), keySpace: keySpace, shards: shards}
	if err := Preload(kv, keySpace, 32); err != nil {
		t.Fatal(err)
	}
	res := Run(clock.Real{}, kv, Config{
		Workers: 2, ReadRatio: 0.5, Duration: 50 * time.Millisecond,
		KeySpace: keySpace, ValueSize: 32, Seed: 1, Shards: shards, BatchKeys: 8,
	})
	if res.Reads == 0 || res.Writes == 0 {
		t.Fatalf("reads=%d writes=%d, want both", res.Reads, res.Writes)
	}
	if int64(kv.applies) != res.Writes || int64(kv.multiGets) != res.Reads {
		t.Fatalf("%d Applies / %d MultiGets for %d writes / %d reads", kv.applies, kv.multiGets, res.Writes, res.Reads)
	}
	if res.Errors != 0 || res.ReadMisses != 0 {
		t.Fatalf("errors=%d misses=%d on a preloaded store", res.Errors, res.ReadMisses)
	}
	if kv.misplaced != 0 || kv.unsynced != 0 {
		t.Fatalf("%d keys outside their shard's slice, %d unsynced batches", kv.misplaced, kv.unsynced)
	}
}
