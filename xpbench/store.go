package main

import (
	"xpointdb/internal/batch"
	"xpointdb/internal/engine"
	"xpointdb/internal/shardeddb"
)

// store is the operation surface the clients drive. engineStore and
// shardedStore adapt the two public databases; corruptStore wraps
// either for the self-test.
type store interface {
	// Get reads one key. A non-nil pc asks the engine for the
	// operation's stage breakdown (traced runs only).
	Get(key []byte, pc *engine.PerfContext) ([]byte, error)
	// Put writes one key. A non-nil pc works as for Get.
	Put(key, value []byte, pc *engine.PerfContext) error
	// Scan returns up to n entries from the first key ≥ start. A
	// non-nil it has the seek and the steps timed.
	Scan(start []byte, n int, it *iterTimer) (keys, values [][]byte, err error)
	// MultiGet reads several keys in one call.
	MultiGet(keys [][]byte) ([][]byte, []error)
	// Apply commits a batch atomically.
	Apply(b *batch.Batch, sync bool) error
	Close() error
}

// iterator is what Scan needs from engine.Iter and shardeddb.Iter.
type iterator interface {
	SeekGE(key []byte)
	Valid() bool
	Next()
	Key() []byte
	Value() []byte
	Error() error
	Close() error
}

type engineStore struct{ db *engine.DB }

func (s engineStore) Get(key []byte, pc *engine.PerfContext) ([]byte, error) {
	if pc == nil {
		return s.db.Get(key)
	}
	return s.db.GetWithPerf(key, pc)
}

func (s engineStore) Put(key, value []byte, pc *engine.PerfContext) error {
	if pc == nil {
		return s.db.Put(key, value)
	}
	var b batch.Batch
	b.Put(key, value)
	return s.db.ApplyWithPerf(&b, false, pc)
}

func (s engineStore) Scan(start []byte, n int, t *iterTimer) ([][]byte, [][]byte, error) {
	it, err := s.db.NewIter()
	if err != nil {
		return nil, nil, err
	}
	return scan(it, start, n, t)
}

func (s engineStore) MultiGet(keys [][]byte) ([][]byte, []error) {
	vals := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	for i, k := range keys {
		vals[i], errs[i] = s.db.Get(k)
	}
	return vals, errs
}

func (s engineStore) Apply(b *batch.Batch, sync bool) error { return s.db.Apply(b, sync) }
func (s engineStore) Close() error                          { return s.db.Close() }

type shardedStore struct{ db *shardeddb.DB }

// Get ignores pc: the sharded store takes no PerfContext, so traced
// runs collect its stages through Options.CollectPerf instead.
func (s shardedStore) Get(key []byte, _ *engine.PerfContext) ([]byte, error) {
	return s.db.Get(key)
}

func (s shardedStore) Put(key, value []byte, _ *engine.PerfContext) error {
	return s.db.Put(key, value)
}

func (s shardedStore) Scan(start []byte, n int, t *iterTimer) ([][]byte, [][]byte, error) {
	it, err := s.db.NewIter()
	if err != nil {
		return nil, nil, err
	}
	return scan(it, start, n, t)
}

func (s shardedStore) MultiGet(keys [][]byte) ([][]byte, []error) {
	return s.db.MultiGet(keys...)
}

func (s shardedStore) Apply(b *batch.Batch, sync bool) error { return s.db.Apply(b, sync) }
func (s shardedStore) Close() error                          { return s.db.Close() }

// scan reads up to n entries from start and closes it.
func scan(it iterator, start []byte, n int, t *iterTimer) (keys, values [][]byte, err error) {
	t.begin()
	it.SeekGE(start)
	t.seeked()
	for len(keys) < n && it.Valid() {
		keys = append(keys, append([]byte(nil), it.Key()...))
		values = append(values, append([]byte(nil), it.Value()...))
		if len(keys) < n {
			it.Next()
			t.stepped()
		}
	}
	err = it.Error()
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	return keys, values, err
}

// corruptStore flips one byte in every n-th value it returns. It
// exists to prove the benchmark's value checks: wrapped around a
// healthy store it must drive error_rate above zero.
type corruptStore struct {
	store
	n    int64
	seen int64 // values returned so far; guarded by the client that owns the store view
}

func (c *corruptStore) corrupt(v []byte) []byte {
	c.seen++
	if c.seen%c.n != 0 || len(v) == 0 {
		return v
	}
	w := append([]byte(nil), v...)
	w[len(w)/2] ^= 0xff
	return w
}

func (c *corruptStore) Get(key []byte, pc *engine.PerfContext) ([]byte, error) {
	v, err := c.store.Get(key, pc)
	if err != nil {
		return v, err
	}
	return c.corrupt(v), nil
}

func (c *corruptStore) Scan(start []byte, n int, t *iterTimer) ([][]byte, [][]byte, error) {
	keys, vals, err := c.store.Scan(start, n, t)
	for i := range vals {
		vals[i] = c.corrupt(vals[i])
	}
	return keys, vals, err
}

func (c *corruptStore) MultiGet(keys [][]byte) ([][]byte, []error) {
	vals, errs := c.store.MultiGet(keys)
	for i := range vals {
		if errs[i] == nil {
			vals[i] = c.corrupt(vals[i])
		}
	}
	return vals, errs
}
