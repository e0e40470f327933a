package engine

import (
	"testing"
	"time"

	"xpointdb/internal/manifest"
	"xpointdb/internal/sim"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// TestScrubPinsOnlyTheFileItVerifies: a paced scrub verify holds one
// SST, not the version it found it in. Files compacted away while the
// verify runs are deleted before it ends, and the file under verify is
// deleted once its pin drops.
func TestScrubPinsOnlyTheFileItVerifies(t *testing.T) {
	k := sim.New(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	fs := vfs.NewMem(storage.New(k, storage.Null()))
	opts := DefaultOptions(fs)
	opts.Clock = k
	opts.MemtableSize = 64 << 10
	opts.TargetFileSize = 64 << 10
	opts.ThrottleMode = throttle.ModeNone
	opts.L0CompactionTrigger = 8 // the test compacts by hand
	opts.DisableScrub = true     // the test runs the pass itself
	opts.ScrubBytesPerSec = 64 << 10

	ssts := func() map[string]bool {
		names, err := fs.List()
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		out := make(map[string]bool)
		for _, n := range names {
			if typ, _ := manifest.ParseName(n); typ == manifest.TypeSST {
				out[n] = true
			}
		}
		return out
	}
	surviving := func(orig map[string]bool) []string {
		var out []string
		for n := range ssts() {
			if orig[n] {
				out = append(out, n)
			}
		}
		return out
	}

	k.Run(func() {
		db, err := Open(opts)
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		defer db.Close()
		for f := 0; f < 3; f++ {
			for i := f * 200; i < (f+1)*200; i++ {
				if err := db.Put(testKey(i), testValue(i)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
			if err := db.Flush(); err != nil {
				t.Errorf("Flush: %v", err)
				return
			}
		}
		orig := ssts()
		if len(orig) != 3 || db.NumLevelFiles(0) != 3 {
			t.Errorf("setup: %d SSTs, %d at L0; want 3 L0 files", len(orig), db.NumLevelFiles(0))
			return
		}
		// Each file takes about size/rate to verify; start the pass and
		// stop a quarter of the way into the first file.
		var size int64
		for n := range orig {
			s, _ := fs.Size(n)
			size = s
		}
		verify := time.Duration(float64(size) / float64(opts.ScrubBytesPerSec) * float64(time.Second))

		m := k.NewMutex()
		c := k.NewCond(m)
		passDone := false
		k.Go("scrub", func() {
			db.runScrubPass()
			m.Lock()
			passDone = true
			c.Signal()
			m.Unlock()
		})
		k.Sleep(verify / 4)

		if err := db.CompactRange(nil, nil); err != nil {
			t.Errorf("CompactRange: %v", err)
			return
		}
		if db.NumLevelFiles(0) != 0 {
			t.Errorf("CompactRange left %d L0 files", db.NumLevelFiles(0))
			return
		}
		m.Lock()
		midVerify := !passDone
		m.Unlock()
		if !midVerify {
			t.Errorf("scrub pass ended before the compaction; verify estimate %v too short", verify)
			return
		}
		if left := surviving(orig); len(left) != 1 {
			t.Errorf("during the verify %d of the 3 compacted-away files remain (%v); want only the pinned one", len(left), left)
		}

		m.Lock()
		for !passDone {
			c.Wait()
		}
		m.Unlock()
		if left := surviving(orig); len(left) != 0 {
			t.Errorf("after the verify the pinned file %v remains", left)
		}
	})
}
