package shardeddb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// benchStore opens a 4-shard store on a zero-latency in-memory FS with
// engine defaults, so the benchmarks measure the sharded layer's CPU
// and locking rather than a device.
func benchStore(b *testing.B) *DB {
	b.Helper()
	eo := engine.DefaultOptions(vfs.NewMem(storage.New(clock.Real{}, storage.Null())))
	eo.ThrottleMode = throttle.ModeNone
	db, err := Open(Options{Shards: 4, Engine: eo})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	b.Cleanup(func() { _ = db.Close() })
	return db
}

// spreadKeys returns n keys, key j on shard j mod 4, drawn from
// per-shard index i.
func spreadKeys(db *DB, i, n int) [][]byte {
	ks := make([][]byte, n)
	for j := range ks {
		ks[j] = shardKey(j%4, db, i*n+j)
	}
	return ks
}

// BenchmarkShardedMultiGet: one 8-key MultiGet, two keys per shard, of
// flushed keys whose blocks sit in the shared cache.
func BenchmarkShardedMultiGet(b *testing.B) {
	db := benchStore(b)
	const sets = 128
	all := make([][][]byte, sets)
	for i := range all {
		all[i] = spreadKeys(db, i, 8)
		for _, k := range all[i] {
			if err := db.Put(k, k); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	for _, ks := range all { // warm the block cache
		db.MultiGet(ks...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, errs := db.MultiGet(all[i%sets]...); errs[0] != nil {
			b.Fatal(errs[0])
		}
	}
}

// BenchmarkCrossShardApply: synced 8-key batches spanning all four
// shards, each a full two-phase commit, from 1, 8 and 32 concurrent
// callers (which share coordinator-log syncs through group commit).
func BenchmarkCrossShardApply(b *testing.B) {
	for _, callers := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("goroutines=%d", callers), func(b *testing.B) {
			db := benchStore(b)
			value := make([]byte, 256)
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1))
						if i > b.N {
							return
						}
						var bt batch.Batch
						for _, k := range spreadKeys(db, i%4096, 8) {
							bt.Put(k, value)
						}
						if err := db.Apply(&bt, true); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
