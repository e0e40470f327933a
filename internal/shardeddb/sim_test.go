package shardeddb

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/sim"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

// TestCrossShardUnderSimulator runs concurrent synced cross-shard
// batches and MultiGets as kernel processes on a simulated 3D XPoint
// device. Every sync is a device sleep, so a lock held across one, or
// a fan-out the kernel cannot see, stalls virtual time for good. The
// run must finish, advance virtual time, and read back every
// acknowledged batch whole. The read-back waits for the writers to
// finish: in pipelined mode an engine Apply can return before its
// group's sequence is published, so an immediate re-read may still
// see the previous value.
func TestCrossShardUnderSimulator(t *testing.T) {
	const (
		shards  = 4
		writers = 3
		readers = 2
		rounds  = 40
	)
	k := sim.New(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	fs := vfs.NewMem(storage.New(k, storage.XPoint()))
	opts := testOptions(fs, shards, func(o *Options) { o.Engine.Clock = k })

	// Writer w owns key index w on every shard and writes the same
	// value to all of them in each batch, so a torn batch shows as
	// shards disagreeing.
	ownKeys := func(db *DB, w int) [][]byte {
		ks := make([][]byte, shards)
		for s := range ks {
			ks[s] = shardKey(s, db, w)
		}
		return ks
	}
	checkWhole := func(db *DB, w int, want []byte) error {
		vals, errs := db.MultiGet(ownKeys(db, w)...)
		for s := range vals {
			if errs[s] != nil || !bytes.Equal(vals[s], want) {
				return fmt.Errorf("writer %d shard %d: got %q, %v; want %q", w, s, vals[s], errs[s], want)
			}
		}
		return nil
	}

	errc := make(chan error, writers+readers+1)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		k.Run(func() {
			db, err := Open(opts)
			if err != nil {
				errc <- err
				return
			}
			acked := make([][]byte, writers)
			mu := k.NewMutex()
			joined := k.NewCond(mu)
			left := writers + readers
			done := func() {
				mu.Lock()
				if left--; left == 0 {
					joined.Signal()
				}
				mu.Unlock()
			}
			for w := 0; w < writers; w++ {
				k.Go(fmt.Sprintf("writer-%d", w), func() {
					defer done()
					for r := 0; r < rounds; r++ {
						v := []byte(fmt.Sprintf("w%d-r%03d", w, r))
						b := new(batch.Batch)
						for _, key := range ownKeys(db, w) {
							b.Put(key, v)
						}
						if err := db.Apply(b, true); err != nil {
							errc <- fmt.Errorf("writer %d round %d: %w", w, r, err)
							return
						}
						acked[w] = v
					}
				})
			}
			for r := 0; r < readers; r++ {
				k.Go(fmt.Sprintf("reader-%d", r), func() {
					defer done()
					var all [][]byte
					for w := 0; w < writers; w++ {
						all = append(all, ownKeys(db, w)...)
					}
					for i := 0; i < rounds; i++ {
						_, errs := db.MultiGet(all...)
						for j, err := range errs {
							if err != nil && err != ErrNotFound {
								errc <- fmt.Errorf("reader %d: key %q: %w", r, all[j], err)
								return
							}
						}
					}
				})
			}
			mu.Lock()
			for left > 0 {
				joined.Wait()
			}
			mu.Unlock()

			for w, v := range acked {
				if v == nil {
					continue // the writer failed; its error is already queued
				}
				if err := checkWhole(db, w, v); err != nil {
					errc <- fmt.Errorf("after the run: %w", err)
				}
			}
			if cross, aborts, _, _ := db.TxnStats(); cross != writers*rounds || aborts != 0 {
				errc <- fmt.Errorf("TxnStats: %d committed, %d aborted; want %d, 0", cross, aborts, writers*rounds)
			}
			if err := db.Close(); err != nil {
				errc <- err
			}
		})
	}()

	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("cross-shard workload under the simulator did not finish: virtual time stalled")
	}
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if k.Elapsed() <= 0 {
		t.Fatal("virtual time did not advance")
	}
	t.Logf("virtual time %v", k.Elapsed())
}
