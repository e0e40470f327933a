package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one named figure with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// percentile returns the p-th percentile (0 < p < 100) of sorted
// samples, in microseconds, as the mean of the samples ranked within
// ±w percentage points of p, where w is 5 up to p90 and half the
// distance to 100 above it: p45–p55 for the median, p98.5–p99.5 for
// p99. Virtual-time latencies have point masses (an uncontended Put on
// the simulated device costs the same every time), so a single order
// statistic would read the same on every run; and on the real clock
// the band mean moves less from run to run than one sample does.
func percentile(sorted []int64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	w := 5.0
	if p > 90 {
		w = (100 - p) / 2
	}
	lo := int(math.Floor((p - w) / 100 * float64(n)))
	hi := int(math.Ceil((p + w) / 100 * float64(n)))
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo > n-1 {
		lo = n - 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	var sum float64
	for _, v := range sorted[lo:hi] {
		sum += float64(v)
	}
	return sum / float64(hi-lo) / 1e3
}

// tailPercentile is the highest of 90, 99, 99.9, ... that still has
// at least ten samples beyond it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9, 99.99, 99.999} {
		if float64(n)*(1-p/100) >= 10 {
			best = p
		}
	}
	return best
}

// samples returns the latencies of one kind of operation: the
// window's, or, on a workload whose mix has none (fill_rt reads
// nothing, only readscan_rt scans), the read-back's.
func (r *result) samples(k opKind) []int64 {
	if len(r.lat[k]) == 0 {
		return r.verifyLat[k]
	}
	return r.lat[k]
}

// combine reduces the rounds of an untraced run to one value per
// metric of each: the median over the rounds, except that set-up time
// is the median of every set-up in the run.
func combine(rs []*result, each func(*result) []metric) []metric {
	var setups []float64
	per := make([][]metric, len(rs))
	for j, r := range rs {
		setups = append(setups, r.setupTimes...)
		per[j] = each(r)
	}
	out := per[0]
	for i := range out {
		vals := make([]float64, len(rs))
		for j := range rs {
			vals[j] = per[j][i].value
		}
		out[i].value = median(vals)
		if out[i].name == "setup_s" {
			out[i].value = median(setups)
		}
	}
	return out
}

// endToEnd returns the gated end-to-end metrics of one round.
func endToEnd(r *result) []metric {
	return []metric{
		{"throughput_ops_s", r.throughput(), "ops/s"},
		{"read_p50_us", percentile(r.samples(opRead), 50), "us"},
		{"write_p50_us", percentile(r.samples(opWrite), 50), "us"},
		{"setup_s", median(r.setupTimes), "s"},
		{"write_amp", div(float64(r.written), float64(r.ackedBytes)), "ratio"},
		{"space_amp", div(float64(r.space), float64(r.liveBytes)), "ratio"},
		{"peak_rss_mb", peakRSSMB(), "MiB"},
	}
}

// ungated returns the end-to-end metrics of one round that are printed
// but not gated: their run-to-run spread is wider than, or too close to,
// the largest bound the benchmark may set, or they read the same on
// every run of some workload (README.md).
func ungated(r *result) []metric {
	scans := r.samples(opScan)
	return []metric{
		{"wall_per_virtual_s", r.wall.Seconds() / r.window.Seconds(), "s/s"},
		{"read_p99_us", percentile(r.samples(opRead), 99), "us"},
		{"write_p99_us", percentile(r.samples(opWrite), 99), "us"},
		{"scan_p50_us", percentile(scans, 50), "us"},
		{"scan_p99_us", percentile(scans, 99), "us"},
	}
}

// printLatencies writes each operation kind's sample count, median and
// tail percentile.
func printLatencies(w io.Writer, r *result) {
	rows := []struct {
		name string
		s    []int64
	}{{"read", r.lat[opRead]}, {"write", r.lat[opWrite]}, {"scan", r.lat[opScan]},
		{"read-back", r.verifyLat[opRead]}, {"scan-back", r.verifyLat[opScan]}}
	for _, row := range rows {
		if len(row.s) == 0 {
			continue
		}
		p := tailPercentile(len(row.s))
		fmt.Fprintf(w, "latency %-9s n=%-8d p50=%.2fus p99=%.2fus p%g=%.2fus (highest percentile with >=10 samples beyond it)\n",
			row.name, len(row.s), percentile(row.s, 50), percentile(row.s, 99), p, percentile(row.s, p))
	}
}

// unlistedLayerTimes are the per-layer times that are printed but not
// listed in BENCHMARK.json: each reads exactly 0 on some workload that
// never does the work it times (no WAL syncs without sync=true, no
// stalls outside xpoint_sim, no reads in fill_rt's window, no scans
// outside readscan_rt, no flush in xshard_rt's window, a Level 0
// already drained), and a time that never changes is not a
// measurement the benchmark may report.
var unlistedLayerTimes = map[string]bool{
	"throttle.delay_us_per_write": true, "throttle.delay_s": true, "throttle.stop_s": true,
	"wal.sync_us": true, "memtable.probe_us": true,
	"engine.read.l0_probe_us": true, "engine.read.deep_probe_us": true,
	"cache.block_read_us": true, "iterator.seek_us": true, "iterator.next_us": true,
	"engine.flush.busy_s": true, "engine.compaction.busy_s": true, "engine.l0_drain_s": true,
	"vfs.read_us": true,
}

// splitLayer separates the listed per-layer metrics from the rest.
func splitLayer(all []metric) (listed, unlisted []metric) {
	for _, m := range all {
		if unlistedLayerTimes[m.name] {
			unlisted = append(unlisted, m)
		} else {
			listed = append(listed, m)
		}
	}
	return listed, unlisted
}

// perLayer returns the per-layer metrics of a traced run r and of the
// untraced run plain made beside it. The runtime's allocation and GC
// figures come from plain, so that the tracer's own allocations are not
// counted as the program's.
func perLayer(r, plain *result) []metric {
	b, a := &r.before, &r.after
	e := func(f func(t *engTotals) float64) float64 { return f(&a.eng) - f(&b.eng) }
	gets := e(func(t *engTotals) float64 { return float64(t.gets) })
	writes := e(func(t *engTotals) float64 { return float64(t.writes) })
	win := r.window.Seconds()
	pb, pa := &plain.before, &plain.after
	plainOps := float64(plain.ops())

	// The engine's stage breakdown: per call on the single engine,
	// from the shards' Metrics on the sharded store.
	pc := r.perf
	if r.spec.shards > 1 {
		pc = a.eng.stages
		addPerf(&pc, &b.eng.stages, -1)
	}
	cacheHits, cacheMisses := float64(pc.BlockCacheHits), float64(pc.BlockCacheMisses)

	fs := func(k fileKind) (float64, float64) {
		return float64(a.fs.writeBytes[k] - b.fs.writeBytes[k]), float64(a.fs.syncs[k] - b.fs.syncs[k])
	}
	var syncs float64
	for k := fileKind(0); k < numKinds; k++ {
		_, s := fs(k)
		syncs += s
	}
	_, walSyncs := fs(kindWAL)
	_, coordSyncs := fs(kindCoord)
	manBytes, manSyncs := fs(kindManifest)
	cross := float64(a.cross - b.cross)
	sampledReads := float64(r.sampledOps[opRead])

	m := []metric{
		{"engine.write.queue_wait_us", div(us(pc.WriteQueueWait), writes), "us"},
		{"engine.write.stall_us", div(us(pc.WriteStall), writes), "us"},
		{"engine.waiting_writers_mean", div(e(func(t *engTotals) float64 { return t.waiting }), win), "count"},
		{"throttle.delay_us_per_write", div(us(pc.ThrottleDelay), writes), "us"},
		{"throttle.delay_s", e(func(t *engTotals) float64 { return t.stallDelay.Seconds() }), "s"},
		{"throttle.stop_s", e(func(t *engTotals) float64 { return t.stallStop.Seconds() }), "s"},
		{"throttle.stop_episodes", e(func(t *engTotals) float64 { return float64(t.stallStops) }), "count"},
		{"wal.append_us", div(us(pc.WALAppend), writes), "us"},
		{"wal.sync_us", div(us(pc.WALSync), writes), "us"},
		{"wal.syncs_per_write", div(e(func(t *engTotals) float64 { return float64(t.walSyncs) }), writes), "count/op"},
		{"memtable.insert_us", div(us(pc.MemtableInsert), writes), "us"},
		{"memtable.probe_us", div(us(pc.MemtableProbe+pc.ImmutableProbe), gets), "us"},
		{"runtime.alloc_bytes_per_op", div(float64(pa.allocBytes-pb.allocBytes), plainOps), "bytes/op"},
		{"runtime.allocs_per_op", div(float64(pa.allocs-pb.allocs), plainOps), "count/op"},
		{"runtime.gc_pause_s", float64(pa.gcPauseNS-pb.gcPauseNS) / 1e9, "s"},
		{"engine.read.l0_probe_us", div(us(pc.L0ProbeTime), gets), "us"},
		{"engine.read.l0_probes_per_get", div(float64(pc.L0Probes), gets), "count/op"},
		{"engine.read.deep_probe_us", div(us(pc.DeepProbeTime), gets), "us"},
		{"engine.read.deep_probes_per_get", div(float64(pc.DeepProbes), gets), "count/op"},
		{"engine.read.hit_share.mem", div(e(func(t *engTotals) float64 { return float64(t.hitMem) }), gets), "ratio"},
		{"engine.read.hit_share.imm", div(e(func(t *engTotals) float64 { return float64(t.hitImm) }), gets), "ratio"},
		{"engine.read.hit_share.l0", div(e(func(t *engTotals) float64 { return float64(t.hitL0) }), gets), "ratio"},
		{"engine.read.hit_share.deep", div(e(func(t *engTotals) float64 { return float64(t.hitDeep) }), gets), "ratio"},
		{"bloom.checks_per_get", div(float64(pc.BloomChecks), gets), "count/op"},
		{"bloom.skip_ratio", div(float64(pc.BloomSkips), float64(pc.BloomChecks)), "ratio"},
		{"cache.hit_ratio", div(cacheHits, cacheHits+cacheMisses), "ratio"},
		{"cache.block_read_us", div(us(pc.BlockReadTime), cacheMisses), "us"},
		{"iterator.seek_us", div(us(r.seekTime), float64(len(r.lat[opScan]))), "us"},
		{"iterator.next_us", div(us(r.nextTime), float64(r.nexts)), "us"},
		{"engine.flush.count", e(func(t *engTotals) float64 { return float64(t.flushes) }), "count"},
		{"engine.flush.busy_s", e(func(t *engTotals) float64 { return t.flushTime.Seconds() }), "s"},
		{"engine.flush.bytes", e(func(t *engTotals) float64 { return float64(t.flushBytes) }), "bytes"},
		{"engine.compaction.count", e(func(t *engTotals) float64 { return float64(t.compactions) }), "count"},
		{"engine.compaction.busy_s", e(func(t *engTotals) float64 { return t.compTime.Seconds() }), "s"},
		{"engine.compaction.read_bytes", e(func(t *engTotals) float64 { return float64(t.compRead) }), "bytes"},
		{"engine.compaction.write_bytes", e(func(t *engTotals) float64 { return float64(t.compWritten) }), "bytes"},
		{"engine.compaction.trivial_moves", e(func(t *engTotals) float64 { return float64(t.trivial) }), "count"},
		{"engine.l0_files_max", float64(r.l0Max), "count"},
		{"engine.l0_drain_s", r.drain.Seconds(), "s"},
		{"manifest.write_bytes", manBytes, "bytes"},
		{"manifest.syncs", manSyncs, "count"},
	}
	for k := fileKind(0); k < numKinds; k++ {
		bytes, _ := fs(k)
		m = append(m, metric{"vfs.write_bytes." + kindNames[k], bytes, "bytes"})
	}
	for k := fileKind(0); k < numKinds; k++ {
		_, s := fs(k)
		m = append(m, metric{"vfs.syncs." + kindNames[k], s, "count"})
	}
	dev := a.dev
	busy := dev.BusyTime - b.dev.BusyTime
	m = append(m,
		metric{"vfs.sync_us", div(float64(a.fs.syncNS-b.fs.syncNS)/1e3, syncs), "us"},
		metric{"vfs.read_calls_per_get", div(float64(r.ioReads[opRead]), sampledReads), "count/op"},
		metric{"vfs.read_bytes_per_get", div(float64(r.ioReadBytes[opRead]), sampledReads), "bytes/op"},
		metric{"vfs.read_us", div(us(r.ioReadTime[opRead]), float64(r.ioReads[opRead])), "us"},
		metric{"storage.util", div(busy.Seconds(), win*float64(r.parallelism)), "ratio"},
		metric{"storage.read_ops", float64(dev.Reads - b.dev.Reads), "count"},
		metric{"storage.write_bytes", float64(dev.WriteBytes - b.dev.WriteBytes), "bytes"},
		metric{"storage.syncs", float64(dev.Syncs - b.dev.Syncs), "count"},
		metric{"shardeddb.cross_commits", cross, "count"},
		metric{"shardeddb.aborts", float64(a.aborts - b.aborts), "count"},
		metric{"shardeddb.coord_syncs_per_batch", div(coordSyncs, cross), "count/op"},
		metric{"shardeddb.prepare_syncs_per_batch", div(walSyncs, cross), "count/op"},
		metric{"shardeddb.cache_hit_ratio", div(float64(a.cacheHits-b.cacheHits), float64(a.cacheHits-b.cacheHits+a.cacheMisses-b.cacheMisses)), "ratio"},
		metric{"bgpool.grants", float64(a.poolGrants - b.poolGrants), "count"},
		metric{"trace_overhead", 1 - div(r.throughput(), plain.throughput()), "ratio"},
	)
	return m
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
