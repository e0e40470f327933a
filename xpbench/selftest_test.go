package main

import (
	"math"
	"testing"
	"time"
)

// small returns a copy of a workload shrunk to run in well under a
// second.
func small(t *testing.T, name string) (*workloadSpec, time.Duration) {
	t.Helper()
	s := *workloads[name]
	s.keys = 2000
	if s.sim {
		return &s, 20 * time.Millisecond
	}
	return &s, 200 * time.Millisecond
}

// TestErrorRate checks both sides of the value checks on every
// workload: a healthy store gives no failures, and a store that
// corrupts one value in fifty gives some.
func TestErrorRate(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			spec, window := small(t, name)
			for _, every := range []int{0, 50} {
				res, err := runWorkload(spec, options{seed: 1, corruptEvery: every}, false, window)
				if err != nil {
					t.Fatal(err)
				}
				if res.attempted == 0 {
					t.Fatalf("corrupt-every %d: no operations attempted", every)
				}
				if every == 0 && res.failed != 0 {
					t.Errorf("healthy store: %d of %d operations failed", res.failed, res.attempted)
				}
				if every > 0 && res.failed == 0 {
					t.Errorf("corrupting store: 0 of %d operations failed", res.attempted)
				}
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i+1) * 1000 // 1..1000 µs
	}
	if got := percentile(s, 50); got < 495 || got > 506 {
		t.Errorf("p50 = %v, want about 500.5", got)
	}
	if got := percentile(s, 99); got < 989 || got > 991 {
		t.Errorf("p99 = %v, want about 990.5", got)
	}
	if got := percentile(s[:1], 99); got != 1 {
		t.Errorf("p99 of one sample = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "op.get", start: 0, end: 100, id: 1},
		{name: "engine.l0_probe", start: 10, end: 60, id: 2, parent: 1},
		{name: "vfs.read.sst", start: 20, end: 40, id: 3, parent: 2},
		{name: "engine.deep_probe", start: 50, end: 90, id: 4, parent: 1},
	}
	got := make(map[string]time.Duration)
	for _, r := range selfTimes(spans) {
		got[r.name] = r.self
	}
	want := map[string]time.Duration{"op.get": 20, "engine.l0_probe": 30, "vfs.read.sst": 20, "engine.deep_probe": 40}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

// TestTracedRun runs every workload small with the tracer on and
// checks that spans were kept and every per-layer metric is a number.
func TestTracedRun(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			spec, window := small(t, name)
			res, err := runWorkload(spec, options{seed: 2}, true, window)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Errorf("%d of %d operations failed", res.failed, res.attempted)
			}
			if len(res.spans) == 0 {
				t.Error("no spans kept")
			}
			for _, m := range perLayer(res, res) {
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v", m.name, m.value)
				}
			}
		})
	}
}
