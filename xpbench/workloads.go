package main

import (
	"bytes"
	"errors"

	"xpointdb/internal/batch"
	"xpointdb/internal/engine"
	"xpointdb/internal/workload"
)

// workloadSpec is one closed-loop workload: a fixed number of clients,
// each issuing its next operation when the previous one returns.
type workloadSpec struct {
	name      string
	sim       bool // virtual time on the 3D XPoint device model
	shards    int  // > 1 runs the range-sharded store
	clients   int
	keys      int // key space; keys are workload.Key(0..keys-1)
	valueSize int
	preload   bool // write every key before the window
	// warmup runs the mix, unmeasured, for this share of the window.
	warmup float64
	// step issues one operation.
	step func(c *client)
}

const keyLen = 16 // len(workload.Key(i))

var workloads = map[string]*workloadSpec{
	"fill_rt": {
		name: "fill_rt", clients: 2, keys: 200000, valueSize: 1024,
		step: fillStep,
	},
	"readscan_rt": {
		name: "readscan_rt", clients: 2, keys: 100000, valueSize: 1024,
		preload: true, warmup: 0.1, step: readScanStep,
	},
	"xshard_rt": {
		name: "xshard_rt", shards: 4, clients: 2, keys: 4000, valueSize: 256,
		preload: true, warmup: 0.1, step: crossShardStep,
	},
	"xpoint_sim": {
		name: "xpoint_sim", sim: true, clients: 8, keys: 24000, valueSize: 1024,
		preload: true, warmup: 0.1, step: xpointStep,
	},
}

// scanLen is the number of entries one scan reads.
const scanLen = 16

// fillStep: 100% Put, uniform keys.
func fillStep(c *client) {
	c.put(c.rng.Intn(c.spec.keys))
}

// readScanStep: 85% Get, 5% 16-key forward scan, 10% Put, uniform.
func readScanStep(c *client) {
	x := c.rng.Intn(100)
	i := c.rng.Intn(c.spec.keys)
	switch {
	case x < 85:
		c.get(i)
	case x < 90:
		c.scan(i)
	default:
		c.put(i)
	}
}

// xpointStep: 50% Get, 50% Put, uniform — the paper's
// randomreadrandomwrite mix.
func xpointStep(c *client) {
	i := c.rng.Intn(c.spec.keys)
	if c.rng.Intn(2) == 0 {
		c.get(i)
	} else {
		c.put(i)
	}
}

// crossShardStep: 50% synced 8-key batch, 50% 8-key MultiGet; each
// touches two random keys in every one of the four shards, so every
// batch commits through two-phase commit across all shards.
func crossShardStep(c *client) {
	s := c.spec
	per := s.keys / s.shards
	idx := make([]int, 0, 2*s.shards)
	for sh := 0; sh < s.shards; sh++ {
		for j := 0; j < 2; j++ {
			idx = append(idx, sh*per+c.rng.Intn(per))
		}
	}
	if c.rng.Intn(2) == 0 {
		c.batch(idx)
	} else {
		c.multiGet(idx)
	}
}

func (c *client) get(i int) {
	key := workload.Key(i)
	pc := c.perfContext()
	t0 := c.begin()
	v, err := c.st.Get(key, pc)
	c.end(t0, opRead, "op.get", pc, nil)
	c.check(err == nil && bytes.Equal(v, workload.Value(i, c.spec.valueSize)))
}

func (c *client) put(i int) {
	key, val := workload.Key(i), workload.Value(i, c.spec.valueSize)
	pc := c.perfContext()
	t0 := c.begin()
	err := c.st.Put(key, val, pc)
	c.end(t0, opWrite, "op.put", pc, nil)
	c.check(err == nil)
	if err == nil {
		c.ackedBytes += int64(len(key) + len(val))
		if c.acked != nil {
			c.acked[i] = true
		}
	} else if c.acked != nil {
		c.failedPut[i] = true
	}
}

func (c *client) scan(i int) {
	it := c.iterTimer()
	t0 := c.begin()
	keys, vals, err := c.st.Scan(workload.Key(i), scanLen, it)
	c.end(t0, opScan, "op.scan", nil, it)
	if it != nil {
		c.seekTime += it.seek.Sub(it.t0)
		c.nextTime += it.last.Sub(it.seek)
		c.nexts += int64(it.nexts)
	}
	c.check(c.scanOK(i, keys, vals, err, func(int) bool { return true }))
}

// scanOK checks a scan from key i: it must return, in order and with
// their values, the next scanLen keys for which present holds.
func (c *client) scanOK(i int, keys, vals [][]byte, err error, present func(int) bool) bool {
	if err != nil {
		return false
	}
	n := 0
	for j := i; j < c.spec.keys && n < scanLen; j++ {
		if !present(j) {
			continue
		}
		if n == len(keys) || !bytes.Equal(keys[n], workload.Key(j)) ||
			!bytes.Equal(vals[n], workload.Value(j, c.spec.valueSize)) {
			return false
		}
		n++
	}
	return n == len(keys)
}

func (c *client) batch(idx []int) {
	var b batch.Batch
	var size int64
	for _, i := range idx {
		key, val := workload.Key(i), workload.Value(i, c.spec.valueSize)
		b.Put(key, val)
		size += int64(len(key) + len(val))
	}
	t0 := c.begin()
	err := c.st.Apply(&b, true)
	c.end(t0, opWrite, "op.batch", nil, nil)
	c.check(err == nil)
	if err == nil {
		c.ackedBytes += size
	}
}

func (c *client) multiGet(idx []int) {
	keys := make([][]byte, len(idx))
	for j, i := range idx {
		keys[j] = workload.Key(i)
	}
	t0 := c.begin()
	vals, errs := c.st.MultiGet(keys)
	c.end(t0, opRead, "op.multiget", nil, nil)
	ok := true
	for j, i := range idx {
		ok = ok && errs[j] == nil && bytes.Equal(vals[j], workload.Value(i, c.spec.valueSize))
	}
	c.check(ok)
}

// verifyScan scans from key i after the window; present says which
// keys must exist.
func (c *client) verifyScan(i int, present func(int) bool) {
	t0 := c.begin()
	keys, vals, err := c.st.Scan(workload.Key(i), scanLen, nil)
	c.end(t0, opScan, "op.scan", nil, nil)
	c.check(c.scanOK(i, keys, vals, err, present))
}

// verifyKey reads key i back after the window. present says whether
// the key must exist; a key that must not exist must read as not
// found. Only reads of keys that exist are timed: on fill_rt a key never
// written is answered by the Bloom filter in a fraction of the time,
// and the share of such keys moves with the window's throughput, so
// timing them would move the read median with it.
func (c *client) verifyKey(i int, present bool) {
	if !present {
		_, err := c.st.Get(workload.Key(i), nil)
		c.check(errors.Is(err, engine.ErrNotFound))
		return
	}
	t0 := c.begin()
	v, err := c.st.Get(workload.Key(i), nil)
	c.end(t0, opRead, "op.get", nil, nil)
	c.check(err == nil && bytes.Equal(v, workload.Value(i, c.spec.valueSize)))
}
