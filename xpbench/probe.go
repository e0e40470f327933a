package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"xpointdb/internal/engine"
	"xpointdb/internal/storage"
)

// probe is a snapshot of every counter the benchmark reads from the
// store's public surface; a window's figures are after − before.
type probe struct {
	eng engTotals
	fs  fsSnapshot
	dev storage.Stats

	allocBytes, allocs, gcPauseNS uint64

	// Sharded store only.
	cross, aborts, cacheHits, cacheMisses, poolGrants int64
}

// engTotals sums the Metrics of every engine (one, or one per shard).
type engTotals struct {
	gets, writes                                int64
	stallDelay, stallStop                       time.Duration
	stallStops                                  int64
	flushes, flushBytes                         int64
	compactions, compRead, compWritten, trivial int64
	flushTime, compTime                         time.Duration
	hitMem, hitImm, hitL0, hitDeep, walSyncs    int64
	waiting                                     float64 // waiting writers integrated over time, writer·seconds
	stages                                      engine.PerfContext
}

func (in *instance) probe() probe {
	var p probe
	for _, db := range in.engines {
		m := db.Metrics()
		s := m.Snapshot()
		e := &p.eng
		e.gets += s.Gets
		e.writes += s.Writes
		e.stallDelay += s.StallDelayTotal
		e.stallStop += s.StallStopTotal
		e.stallStops += s.StallStops
		e.flushes += s.Flushes
		e.flushBytes += s.FlushBytes
		e.compactions += s.Compactions
		e.compRead += s.CompactionBytesRead
		e.compWritten += s.CompactionBytesWritten
		e.trivial += s.TrivialMoves
		e.flushTime += m.FlushLatency.Sum()
		e.compTime += m.CompactionLatency.Sum()
		e.hitMem += s.GetHitMemtable
		e.hitImm += s.GetHitImmutable
		e.hitL0 += s.GetHitL0
		e.hitDeep += s.GetHitDeep
		e.walSyncs += s.WALSyncs
		e.waiting += m.WaitingWriters.Mean() * s.Uptime.Seconds()
		st := &e.stages
		st.ThrottleDelay += m.StageThrottleDelay.Sum()
		st.WriteQueueWait += m.StageQueueWait.Sum()
		st.WriteStall += m.StageWriteStall.Sum()
		st.WALAppend += m.StageWALAppend.Sum()
		st.WALSync += m.StageWALSync.Sum()
		st.MemtableInsert += m.StageMemInsert.Sum()
		st.MemtableProbe += m.StageMemProbe.Sum()
		st.ImmutableProbe += m.StageImmProbe.Sum()
		st.L0ProbeTime += m.StageL0Probe.Sum()
		st.DeepProbeTime += m.StageDeepProbe.Sum()
		st.BlockReadTime += m.StageBlockRead.Sum()
		st.L0Probes += int(s.L0TablesProbed)
		st.BloomSkips += int(s.BloomSkips)
		st.BlockCacheHits += int(s.PerfBlockCacheHits)
		st.BlockCacheMisses += int(s.PerfBlockCacheMisses)
	}
	p.fs = in.fsc.snapshot()
	p.dev = in.dev.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.allocBytes, p.allocs, p.gcPauseNS = ms.TotalAlloc, ms.Mallocs, ms.PauseTotalNs
	if in.sdb != nil {
		p.cross, p.aborts, _, _ = in.sdb.TxnStats()
		_, p.cacheHits, p.cacheMisses = in.sdb.CacheStats()
		_, _, p.poolGrants = in.sdb.Pool().Stats()
	}
	return p
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or
// the memory obtained from the OS by the Go runtime where /proc is not
// available.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
