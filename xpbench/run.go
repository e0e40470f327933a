package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/costmodel"
	"xpointdb/internal/engine"
	"xpointdb/internal/shardeddb"
	"xpointdb/internal/sim"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
	"xpointdb/internal/workload"
)

type opKind int

const (
	opRead opKind = iota
	opWrite
	opScan
	numOps
)

// client is one closed-loop caller. Its fields are touched only by the
// process running it, and by the coordinator between phases.
type client struct {
	id      int
	spec    *workloadSpec
	st      store
	clk     clock.Clock
	rng     *rand.Rand
	tr      *tracer
	seq     uint64
	op      opState
	sampled bool // the operation in flight is sampled by the tracer

	record    bool // false during warm-up: latencies are not kept
	lat       [numOps][]int64
	attempted int64
	failed    int64

	ackedBytes int64  // key+value bytes of acknowledged writes in the window
	acked      []bool // fill_rt: keys with an acknowledged Put
	failedPut  []bool // fill_rt: keys with a failed Put (state unknown)

	// Traced runs: the engine's stage breakdown summed over the
	// client's operations, iterator timing, and the filesystem reads
	// made inside each kind of operation.
	pc          engine.PerfContext
	perf        engine.PerfContext
	it          iterTimer
	seekTime    time.Duration
	nextTime    time.Duration
	nexts       int64
	sampledOps  [numOps]int64 // operations whose filesystem reads were tied to them
	ioReads     [numOps]int64
	ioReadBytes [numOps]int64
	ioReadTime  [numOps]time.Duration
}

// perfContext returns a fresh PerfContext for the next operation in a
// traced run on the single engine, nil otherwise.
func (c *client) perfContext() *engine.PerfContext {
	if c.tr == nil || c.spec.shards > 1 {
		return nil
	}
	c.pc = engine.PerfContext{}
	return &c.pc
}

func (c *client) iterTimer() *iterTimer {
	if c.tr == nil {
		return nil
	}
	c.it.clk = c.clk
	return &c.it
}

func (c *client) begin() time.Time {
	c.seq++
	c.sampled = c.tr != nil && c.tr.beginOp(c.id, uint64(c.id)<<48|c.seq, &c.op)
	return c.clk.Now()
}

func (c *client) end(t0 time.Time, kind opKind, name string, pc *engine.PerfContext, it *iterTimer) {
	t1 := c.clk.Now()
	if c.record {
		c.lat[kind] = append(c.lat[kind], int64(t1.Sub(t0)))
	}
	if c.record && pc != nil {
		addPerf(&c.perf, pc, 1)
	}
	if !c.sampled {
		return
	}
	c.tr.endOp(&c.op, name, t0, t1, pc, it)
	if c.record && c.op.io {
		c.sampledOps[kind]++
		c.ioReads[kind] += c.op.reads
		c.ioReadBytes[kind] += c.op.readBytes
		c.ioReadTime[kind] += c.op.readTime
	}
}

func (c *client) check(ok bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
}

// resetWindow clears what the measured window reports.
func (c *client) resetWindow() {
	c.lat = [numOps][]int64{}
	c.ackedBytes = 0
	c.perf = engine.PerfContext{}
	c.seekTime, c.nextTime, c.nexts = 0, 0, 0
	c.sampledOps, c.ioReads, c.ioReadBytes = [numOps]int64{}, [numOps]int64{}, [numOps]int64{}
	c.ioReadTime = [numOps]time.Duration{}
}

// addPerf adds k times pc to sum.
func addPerf(sum, pc *engine.PerfContext, k int) {
	d := time.Duration(k)
	sum.ThrottleDelay += d * pc.ThrottleDelay
	sum.WriteQueueWait += d * pc.WriteQueueWait
	sum.WriteStall += d * pc.WriteStall
	sum.WALAppend += d * pc.WALAppend
	sum.WALSync += d * pc.WALSync
	sum.MemtableInsert += d * pc.MemtableInsert
	sum.MemtableProbe += d * pc.MemtableProbe
	sum.ImmutableProbe += d * pc.ImmutableProbe
	sum.L0ProbeTime += d * pc.L0ProbeTime
	sum.DeepProbeTime += d * pc.DeepProbeTime
	sum.BlockReadTime += d * pc.BlockReadTime
	sum.L0Probes += k * pc.L0Probes
	sum.DeepProbes += k * pc.DeepProbes
	sum.BloomChecks += k * pc.BloomChecks
	sum.BloomSkips += k * pc.BloomSkips
	sum.BlockCacheHits += k * pc.BlockCacheHits
	sum.BlockCacheMisses += k * pc.BlockCacheMisses
}

// parallel runs fn(0..n-1) as n processes of clk and waits for all of
// them, parking on the clock's own condition variable so that virtual
// time can advance while it waits.
func parallel(clk clock.Clock, n int, fn func(i int)) {
	m := clk.NewMutex()
	c := clk.NewCond(m)
	left := n
	for i := 0; i < n; i++ {
		i := i
		clk.Go(fmt.Sprintf("xpbench-%d", i), func() {
			fn(i)
			m.Lock()
			left--
			if left == 0 {
				c.Broadcast()
			}
			m.Unlock()
		})
	}
	m.Lock()
	for left > 0 {
		c.Wait()
	}
	m.Unlock()
}

// runPhase drives every client for d of clock time and returns the
// clock time it took until the last operation returned.
func runPhase(clk clock.Clock, clients []*client, d time.Duration, record bool) time.Duration {
	start := clk.Now()
	end := start.Add(d)
	parallel(clk, len(clients), func(i int) {
		c := clients[i]
		c.record = record
		if c.tr != nil {
			c.tr.register(c.id)
		}
		for clk.Now().Before(end) {
			c.spec.step(c)
		}
	})
	return clk.Now().Sub(start)
}

// instance is one opened store on its own in-memory filesystem.
type instance struct {
	spec    *workloadSpec
	clk     clock.Clock
	dev     *storage.Device
	mem     *vfs.MemFS
	fsc     *fsCounters
	tr      *tracer
	st      store
	engines []*engine.DB
	sdb     *shardeddb.DB
}

func newInstance(spec *workloadSpec, clk clock.Clock, tr *tracer) *instance {
	prof := storage.Null()
	if spec.sim {
		prof = storage.XPoint()
	}
	dev := storage.New(clk, prof)
	return &instance{spec: spec, clk: clk, dev: dev, mem: vfs.NewMem(dev), fsc: &fsCounters{}, tr: tr}
}

// open opens the store on the instance's filesystem (again, after a
// close, to read back what the previous opening wrote).
func (in *instance) open() error {
	fs := &benchFS{FS: in.mem, c: in.fsc, tr: in.tr}
	o := engine.DefaultOptions(fs)
	o.Clock = in.clk
	if in.spec.sim {
		// dbbench's defaults for the simulated device.
		o.CostModel = costmodel.Default()
		o.MemtableSize = 2 << 20
		o.TargetFileSize = 2 << 20
		o.BaseLevelBytes = 8 << 20
	}
	if in.tr != nil {
		o.EventListener = in.tr
		// The sharded store takes no per-call PerfContext; have every
		// shard time its stages into its Metrics instead.
		o.CollectPerf = in.spec.shards > 1
	}
	if in.spec.shards > 1 {
		b := make([][]byte, 0, in.spec.shards-1)
		for i := 1; i < in.spec.shards; i++ {
			b = append(b, workload.Key(in.spec.keys*i/in.spec.shards))
		}
		sdb, err := shardeddb.Open(shardeddb.Options{Shards: in.spec.shards, Boundaries: b, Engine: o})
		if err != nil {
			return fmt.Errorf("open sharded store: %w", err)
		}
		in.sdb, in.st = sdb, shardedStore{sdb}
		in.engines = in.engines[:0]
		for i := 0; i < sdb.NumShards(); i++ {
			in.engines = append(in.engines, sdb.Shard(i))
		}
		return nil
	}
	db, err := engine.Open(o)
	if err != nil {
		return fmt.Errorf("open engine: %w", err)
	}
	in.sdb, in.st, in.engines = nil, engineStore{db}, []*engine.DB{db}
	return nil
}

func (in *instance) close() error {
	if in.st == nil {
		return nil
	}
	err := in.st.Close()
	in.st, in.sdb, in.engines = nil, nil, nil
	return err
}

// preload writes every key in order, in batches, and settles.
func (in *instance) preload() error {
	const per = 256
	for i := 0; i < in.spec.keys; i += per {
		var b batch.Batch
		for j := i; j < i+per && j < in.spec.keys; j++ {
			b.Put(workload.Key(j), workload.Value(j, in.spec.valueSize))
		}
		if err := in.st.Apply(&b, false); err != nil {
			return fmt.Errorf("preload keys %d..: %w", i, err)
		}
	}
	return in.settle()
}

// settle flushes every memtable and waits for background compaction to
// bring every level under its target, so that what follows starts from
// a tree in shape rather than from wherever a compaction happened to
// be.
func (in *instance) settle() error {
	for _, db := range in.engines {
		if err := db.Flush(); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
	}
	in.waitFor(30*time.Second, func(db *engine.DB) bool {
		for _, l := range db.LevelStats().Levels {
			if l.Score >= 1 {
				return false
			}
		}
		return true
	})
	return nil
}

// drainL0 waits until Level 0 is back under its compaction trigger on
// every engine and returns how long that took.
func (in *instance) drainL0() time.Duration {
	trigger := engine.DefaultOptions(nil).L0CompactionTrigger
	return in.waitFor(10*time.Second, func(db *engine.DB) bool { return db.NumLevelFiles(0) < trigger })
}

// waitFor polls, on the workload's clock, until done holds for every
// engine or limit passes, and returns the time waited.
func (in *instance) waitFor(limit time.Duration, done func(*engine.DB) bool) time.Duration {
	start := in.clk.Now()
	for in.clk.Now().Sub(start) < limit {
		all := true
		for _, db := range in.engines {
			all = all && done(db)
		}
		if all {
			break
		}
		in.clk.Sleep(5 * time.Millisecond)
	}
	return in.clk.Now().Sub(start)
}

// liveBytes returns the bytes of the files the store is using: every
// file but SSTs that have left the tree and wait for deletion (a reader
// such as a scrub pass can pin them for seconds, which would make the
// figure depend on where that pass happens to be).
func (in *instance) liveBytes() int64 {
	n := in.mem.TotalBytes()
	names, _ := in.mem.List()
	for _, name := range names {
		if kindOf(name) == kindSST {
			size, _ := in.mem.Size(name)
			n -= size
		}
	}
	for _, db := range in.engines {
		for _, l := range db.LevelStats().Levels {
			n += l.Bytes
		}
	}
	return n
}

// result is everything one measured run produced.
type result struct {
	spec       *workloadSpec
	setupTimes []float64 // seconds, one per set-up
	window     time.Duration
	wall       time.Duration
	lat        [numOps][]int64 // sorted, ns
	verifyLat  [numOps][]int64 // read-back after the window, sorted
	attempted  int64
	failed     int64
	ackedBytes int64
	// written is what the filesystem took from the window's start until
	// the tree settled after it; space is the size of the live files
	// then.
	written   int64
	space     int64
	liveBytes int64
	drain     time.Duration

	before, after probe
	parallelism   int
	perf          engine.PerfContext
	seekTime      time.Duration
	nextTime      time.Duration
	nexts         int64
	sampledOps    [numOps]int64
	ioReads       [numOps]int64
	ioReadBytes   [numOps]int64
	ioReadTime    [numOps]time.Duration
	l0Max         int
	spans         []span
	spansDropped  int64
}

func (r *result) ops() int64 {
	var n int64
	for _, l := range r.lat {
		n += int64(len(l))
	}
	return n
}

func (r *result) throughput() float64 { return float64(r.ops()) / r.window.Seconds() }

// measure sets the workload up, runs its window and checks the store
// afterwards. It must run as a process of clk.
func measure(spec *workloadSpec, o options, clk clock.Clock, traced bool, window time.Duration) (*result, error) {
	res := &result{spec: spec}
	var tr *tracer
	if traced {
		tr = newTracer(clk, spec.clients)
	}
	if !spec.preload {
		// An empty store opens in tens of microseconds, too short to
		// time steadily once, so fill_rt's set-up first opens and closes
		// emptyOpens fresh stores and times each; setup_s is the median
		// of every set-up time.
		for i := 0; i < emptyOpens; i++ {
			t := time.Now()
			x := newInstance(spec, clk, nil)
			if err := x.open(); err != nil {
				return nil, err
			}
			res.setupTimes = append(res.setupTimes, time.Since(t).Seconds())
			if err := x.close(); err != nil {
				return nil, fmt.Errorf("close after set-up: %w", err)
			}
		}
	}
	t := time.Now()
	in := newInstance(spec, clk, tr)
	if err := in.open(); err != nil {
		return nil, err
	}
	if spec.preload {
		if err := in.preload(); err != nil {
			return nil, err
		}
	}
	res.setupTimes = append(res.setupTimes, time.Since(t).Seconds())

	clients := make([]*client, spec.clients)
	for i := range clients {
		c := &client{id: i, spec: spec, st: in.st, clk: clk, tr: tr,
			rng: rand.New(rand.NewSource(o.seed*1000003 + int64(i)*7919))}
		if o.corruptEvery > 0 {
			c.st = &corruptStore{store: in.st, n: int64(o.corruptEvery)}
		}
		if !spec.preload {
			c.acked = make([]bool, spec.keys)
			c.failedPut = make([]bool, spec.keys)
		}
		clients[i] = c
	}
	if spec.warmup > 0 {
		runPhase(clk, clients, time.Duration(spec.warmup*float64(window)), false)
		for _, c := range clients {
			c.resetWindow()
		}
	}

	if tr != nil {
		tr.resetWindow()
	}
	res.before = in.probe()
	wall := time.Now()
	res.window = runPhase(clk, clients, window, true)
	res.wall = time.Since(wall)
	res.after = in.probe()
	if tr != nil {
		tr.stop()
	}
	res.drain = in.drainL0()
	if err := in.settle(); err != nil {
		return nil, err
	}
	res.written = in.fsc.snapshot().totalWrite() - res.before.fs.totalWrite()
	res.space = in.liveBytes()
	res.parallelism = in.dev.Profile().Parallelism
	if tr != nil {
		res.l0Max = tr.l0FilesMax()
		res.spans, res.spansDropped = tr.finish()
	}

	// Read everything back from a reopened store.
	if err := in.close(); err != nil {
		return nil, fmt.Errorf("close after window: %w", err)
	}
	acked := make([]bool, spec.keys)
	skip := make([]bool, spec.keys)
	for _, c := range clients {
		for i := range c.acked {
			acked[i] = acked[i] || c.acked[i]
			skip[i] = skip[i] || c.failedPut[i]
		}
		for k := range c.lat {
			res.lat[k] = append(res.lat[k], c.lat[k]...)
		}
		res.ackedBytes += c.ackedBytes
		addPerf(&res.perf, &c.perf, 1)
		res.seekTime += c.seekTime
		res.nextTime += c.nextTime
		res.nexts += c.nexts
		for k := range c.ioReads {
			res.sampledOps[k] += c.sampledOps[k]
			res.ioReads[k] += c.ioReads[k]
			res.ioReadBytes[k] += c.ioReadBytes[k]
			res.ioReadTime[k] += c.ioReadTime[k]
		}
	}
	live := int64(0)
	for i := 0; i < spec.keys; i++ {
		if spec.preload || acked[i] {
			live++
		}
	}
	res.liveBytes = live * int64(keyLen+spec.valueSize)

	in.tr = nil
	if err := in.open(); err != nil {
		return nil, fmt.Errorf("reopen for read-back: %w", err)
	}
	if err := in.settle(); err != nil {
		return nil, err
	}
	passes := 1
	if len(res.lat[opRead]) == 0 {
		// The window read nothing, so the read figures come from the
		// read-back. Where compaction happened to stop when the window
		// ended moves them by a third, so the tree is compacted fully
		// first; and one pass lasts well under a second, so three are
		// made to measure over a span a passing disturbance of the
		// machine does not cover.
		for _, db := range in.engines {
			if err := db.CompactRange(nil, nil); err != nil {
				return nil, fmt.Errorf("compact before read-back: %w", err)
			}
		}
		passes = 3
	}
	for _, c := range clients {
		c.st, c.tr, c.record = in.st, nil, true
		if o.corruptEvery > 0 {
			c.st = &corruptStore{store: in.st, n: int64(o.corruptEvery)}
		}
		c.resetWindow()
	}
	// Every key is read back (in as many passes as set above), each
	// pass in a seeded random order (in key order, each block read
	// would serve the next few keys from the block cache), then scans
	// start from random keys. A key whose Put failed
	// is in an unknown state: it is not read back, and a scan over it
	// may count one more failure in a run that has already failed.
	present := func(i int) bool { return spec.preload || acked[i] }
	orderRNG := rand.New(rand.NewSource(o.seed))
	var order []int
	for p := 0; p < passes; p++ {
		order = orderRNG.Perm(spec.keys)
		parallel(clk, len(clients), func(j int) {
			for n := j; n < spec.keys; n += len(clients) {
				if i := order[n]; !skip[i] {
					clients[j].verifyKey(i, present(i))
				}
			}
		})
	}
	parallel(clk, len(clients), func(j int) {
		for n := j; n < readBackScans; n += len(clients) {
			clients[j].verifyScan(order[n%spec.keys], present)
		}
	})
	for _, c := range clients {
		res.verifyLat[opRead] = append(res.verifyLat[opRead], c.lat[opRead]...)
		res.verifyLat[opScan] = append(res.verifyLat[opScan], c.lat[opScan]...)
		res.attempted += c.attempted
		res.failed += c.failed
	}
	if err := in.close(); err != nil {
		return nil, fmt.Errorf("close after read-back: %w", err)
	}
	for k := range res.lat {
		sortNS(res.lat[k])
		sortNS(res.verifyLat[k])
	}
	return res, nil
}

// emptyOpens is how many extra empty stores fill_rt's set-up opens to
// time.
const emptyOpens = 32

func sortNS(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// readBackScans is how many scans the read-back makes.
const readBackScans = 2000

// rounds is how many independent rounds (set-up, warm-up, window,
// read-back) an untraced run makes; each end-to-end metric is the
// median over the rounds, which keeps a burst of noise on a shared
// machine in one round from moving the run's figures.
const rounds = 3

// runRounds runs the untraced rounds of one run, window each.
func runRounds(spec *workloadSpec, o options, window time.Duration) ([]*result, error) {
	var out []*result
	for i := 0; i < rounds; i++ {
		res, err := runWorkload(spec, o, false, window)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		out = append(out, res)
		runtime.GC() // free the round's store before the next one
	}
	return out, nil
}

// runWorkload runs measure on the workload's clock: the real one, or a
// fresh simulation kernel in virtual time.
func runWorkload(spec *workloadSpec, o options, traced bool, window time.Duration) (*result, error) {
	if !spec.sim {
		return measure(spec, o, clock.Real{}, traced, window)
	}
	k := sim.New(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	var res *result
	var err error
	k.Run(func() { res, err = measure(spec, o, k, traced, window) })
	return res, err
}
