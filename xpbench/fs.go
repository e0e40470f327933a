package main

import (
	"path"
	"strings"
	"sync/atomic"
	"time"

	"xpointdb/internal/vfs"
)

// fileKind classifies a database file for the per-kind vfs counters.
type fileKind int

const (
	kindWAL fileKind = iota
	kindSST
	kindManifest
	kindCoord
	kindOther
	numKinds
)

var kindNames = [numKinds]string{"wal", "sst", "manifest", "coord", "other"}

// Span names of filesystem calls by file kind, built once so that a
// traced call allocates no name.
var writeSpan, readSpan, syncSpan = spanNames("vfs.write."), spanNames("vfs.read."), spanNames("vfs.sync.")

func spanNames(prefix string) (names [numKinds]string) {
	for k, n := range kindNames {
		names[k] = prefix + n
	}
	return names
}

// kindOf classifies a name as the database hands it to the base
// filesystem: shard files carry a "shard-NNN/" prefix and the sharded
// store's coordinator log lives under "meta/".
func kindOf(name string) fileKind {
	if strings.HasPrefix(name, "meta/") {
		return kindCoord
	}
	base := path.Base(name)
	switch {
	case strings.HasSuffix(base, ".log"):
		return kindWAL
	case strings.HasSuffix(base, ".sst"):
		return kindSST
	case strings.HasPrefix(base, "MANIFEST-"), base == "CURRENT":
		return kindManifest
	}
	return kindOther
}

// fsCounters are the filesystem totals the benchmark reads. Counting
// is always on; timing is added only in traced runs.
type fsCounters struct {
	writeBytes [numKinds]atomic.Int64
	syncs      [numKinds]atomic.Int64
	syncNS     atomic.Int64
}

// fsSnapshot is a plain copy of fsCounters.
type fsSnapshot struct {
	writeBytes, syncs [numKinds]int64
	syncNS            int64
}

func (s fsSnapshot) totalWrite() int64 {
	var n int64
	for _, b := range s.writeBytes {
		n += b
	}
	return n
}

func (c *fsCounters) snapshot() fsSnapshot {
	var s fsSnapshot
	for i := range s.writeBytes {
		s.writeBytes[i] = c.writeBytes[i].Load()
		s.syncs[i] = c.syncs[i].Load()
	}
	s.syncNS = c.syncNS.Load()
	return s
}

// benchFS wraps the database's filesystem. It counts bytes and calls
// by file kind and, with a tracer, times every call and records it as
// a span under the client operation running on the calling goroutine.
type benchFS struct {
	vfs.FS
	c  *fsCounters
	tr *tracer // nil in untraced runs
}

func (fs *benchFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &benchFile{File: f, fs: fs, kind: kindOf(name)}, nil
}

func (fs *benchFS) Open(name string) (vfs.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &benchFile{File: f, fs: fs, kind: kindOf(name)}, nil
}

type benchFile struct {
	vfs.File
	fs   *benchFS
	kind fileKind
}

func (f *benchFile) Write(p []byte) (int, error) {
	tr := f.fs.tr
	var t0 time.Time
	if tr != nil {
		t0 = tr.now()
	}
	n, err := f.File.Write(p)
	f.fs.c.writeBytes[f.kind].Add(int64(n))
	if tr != nil {
		tr.ioSpan(writeSpan[f.kind], t0, tr.now(), f.kind != kindSST, false, n)
	}
	return n, err
}

func (f *benchFile) ReadAt(p []byte, off int64) (int, error) {
	tr := f.fs.tr
	var t0 time.Time
	if tr != nil {
		t0 = tr.now()
	}
	n, err := f.File.ReadAt(p, off)
	if tr != nil {
		tr.ioSpan(readSpan[f.kind], t0, tr.now(), true, true, n)
	}
	return n, err
}

func (f *benchFile) Sync() error {
	tr := f.fs.tr
	var t0 time.Time
	if tr != nil {
		t0 = tr.now()
	}
	err := f.File.Sync()
	c := f.fs.c
	c.syncs[f.kind].Add(1)
	if tr != nil {
		t1 := tr.now()
		c.syncNS.Add(int64(t1.Sub(t0)))
		tr.ioSpan(syncSpan[f.kind], t0, t1, f.kind != kindSST, false, 0)
	}
	return err
}
