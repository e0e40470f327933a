package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
	"xpointdb/internal/events"
)

// A span is one timed interval at a layer boundary. Times are offsets
// from the tracer's origin on the workload's clock (virtual time under
// the simulator). parent is the id of the span that caused this one,
// 0 for a root; op is the client operation the span belongs to, 0 for
// background work.
type span struct {
	name       string
	start, end time.Duration
	id, parent uint64
	op         uint64
	tid        int
}

// layer is the module a span name belongs to: the part before the
// first dot ("wal.append" → "wal").
func (s *span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i > 0 {
		return s.name[:i]
	}
	return s.name
}

// Thread ids for background spans in the Chrome trace; clients use
// their own index.
const (
	tidOtherIO = 1000 + iota // filesystem calls not tied to a sampled operation
	tidFlush
	tidCompaction
	tidStall
)

// opState is a client operation whose spans are kept.
type opState struct {
	op     uint64
	spanID uint64
	tid    int
	io     bool // filesystem calls are tied to this operation
	// Filesystem reads the operation made. Only the goroutine running
	// the operation touches them.
	reads, readBytes int64
	readTime         time.Duration
}

// clientSlot ties a client's goroutine to its sampled operation in
// flight, if any.
type clientSlot struct {
	gid atomic.Int64
	cur atomic.Pointer[opState]
}

// tracer keeps spans in memory and writes them once at exit. It keeps
// the spans of one client operation in sampleEvery (the counts and
// sums reported come from every operation regardless) and of one
// unattributed filesystem call in sampleEvery, up to maxSpans.
//
// A filesystem call is tied to the operation that made it by goroutine
// id. Reading the id costs microseconds, so this is done for one
// sampled operation in ioEvery only: the id is read only while such an
// operation is in flight, and only for calls a client can make (reads,
// and writes and syncs outside SST files, which only flushes and
// compactions write).
//
// It never holds its lock across a call into the engine: the lock
// guards only appends, so it is safe under the simulation kernel's
// rule that no process sleeps holding a plain mutex.
type tracer struct {
	clk         clock.Clock
	origin      time.Time
	sampleEvery uint64
	ioEvery     uint64
	maxSpans    int

	nextID   atomic.Uint64
	otherIOs atomic.Uint64
	inFlight atomic.Int32 // sampled operations in flight
	stopped  atomic.Bool
	clients  []clientSlot

	mu        sync.Mutex
	spans     []span
	dropped   int64
	l0Max     int
	stallFrom map[int]time.Duration // shard → start of the current stall episode
}

func newTracer(clk clock.Clock, clients int) *tracer {
	return &tracer{
		clk:         clk,
		origin:      clk.Now(),
		sampleEvery: 16,
		ioEvery:     64,
		maxSpans:    250000,
		clients:     make([]clientSlot, clients),
		stallFrom:   make(map[int]time.Duration),
	}
}

func (t *tracer) now() time.Time { return t.clk.Now() }

func (t *tracer) add(s span) {
	if t.stopped.Load() {
		return
	}
	t.mu.Lock()
	if len(t.spans) < t.maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// register records that client id runs on the calling goroutine.
func (t *tracer) register(id int) { t.clients[id].gid.Store(goroutineID()) }

// beginOp starts operation op of client id. It reports whether the
// operation is sampled, in which case st tracks it until endOp.
func (t *tracer) beginOp(id int, op uint64, st *opState) bool {
	if op%t.sampleEvery != 0 {
		return false
	}
	*st = opState{op: op, spanID: t.nextID.Add(1), tid: id, io: op%t.ioEvery == 0}
	if st.io {
		t.clients[id].cur.Store(st)
		t.inFlight.Add(1)
	}
	return true
}

// endOp records operation st as span name over [t0, t1], with the
// engine's stage breakdown pc and the iterator timing it laid out as
// child spans.
func (t *tracer) endOp(st *opState, name string, t0, t1 time.Time, pc *engine.PerfContext, it *iterTimer) {
	if st.io {
		t.clients[st.tid].cur.Store(nil)
		t.inFlight.Add(-1)
	}
	start, end := t0.Sub(t.origin), t1.Sub(t.origin)
	t.add(span{name: name, start: start, end: end, id: st.spanID, op: st.op, tid: st.tid})
	child := func(name string, from, to time.Duration) {
		if to > from {
			t.add(span{name: name, start: from, end: to, id: t.nextID.Add(1), parent: st.spanID, op: st.op, tid: st.tid})
		}
	}
	if pc != nil {
		// The engine reports how long each stage took, not when it
		// started; the stages run in this order and partition the
		// operation, so they are laid end to end from its start.
		at := start
		for _, s := range []struct {
			name string
			d    time.Duration
		}{
			{"throttle.delay", pc.ThrottleDelay},
			{"engine.write_queue", pc.WriteQueueWait},
			{"engine.write_stall", pc.WriteStall},
			{"wal.append", pc.WALAppend},
			{"wal.sync", pc.WALSync},
			{"memtable.insert", pc.MemtableInsert},
			{"memtable.probe", pc.MemtableProbe},
			{"memtable.imm_probe", pc.ImmutableProbe},
			{"engine.l0_probe", pc.L0ProbeTime},
			{"engine.deep_probe", pc.DeepProbeTime},
		} {
			child(s.name, at, at+s.d)
			at += s.d
		}
	}
	if it != nil && it.begun {
		child("iterator.seek", it.t0.Sub(t.origin), it.seek.Sub(t.origin))
		child("iterator.next", it.seek.Sub(t.origin), it.last.Sub(t.origin))
	}
}

// ioSpan records a filesystem call. client says whether a client
// operation can have made it; if one did, and its calls are being
// tied to it, a read of n bytes is charged to it and the span hangs
// under it.
func (t *tracer) ioSpan(name string, t0, t1 time.Time, client, read bool, n int) {
	if client && t.inFlight.Load() > 0 {
		gid := goroutineID()
		for i := range t.clients {
			c := &t.clients[i]
			if c.gid.Load() != gid {
				continue
			}
			if st := c.cur.Load(); st != nil {
				if read {
					st.reads++
					st.readBytes += int64(n)
					st.readTime += t1.Sub(t0)
				}
				t.add(span{name: name, start: t0.Sub(t.origin), end: t1.Sub(t.origin),
					id: t.nextID.Add(1), parent: st.spanID, op: st.op, tid: st.tid})
				return
			}
		}
	}
	if t.otherIOs.Add(1)%t.sampleEvery == 0 {
		t.add(span{name: name, start: t0.Sub(t.origin), end: t1.Sub(t.origin),
			id: t.nextID.Add(1), tid: tidOtherIO})
	}
}

// Emit implements events.Listener: flushes and compactions become
// background spans, stall episodes become throttle spans, and every
// reported Level-0 count feeds l0Max.
func (t *tracer) Emit(e events.Event) {
	if t.stopped.Load() {
		return
	}
	at := e.TS.Sub(t.origin)
	var bg *span
	background := func(name string, d time.Duration, tid int) {
		bg = &span{name: name, start: at - d, end: at, tid: tid}
	}
	l0 := -1
	switch e.Kind {
	case events.KindFlushEnd:
		if f := e.Flush; f != nil {
			l0 = f.L0Files
			background("engine.flush", time.Duration(f.DurationUS)*time.Microsecond, tidFlush)
		}
	case events.KindCompactionEnd:
		if c := e.Compaction; c != nil {
			background("engine.compaction", time.Duration(c.DurationUS)*time.Microsecond, tidCompaction)
		}
	case events.KindSuperVersionInstall:
		if sv := e.SuperVersion; sv != nil {
			l0 = sv.L0Files
		}
	}
	t.mu.Lock()
	if s := e.Stall; e.Kind == events.KindStallChange && s != nil {
		l0 = s.L0Files
		from, open := t.stallFrom[e.Shard]
		if s.To == "clear" && open {
			delete(t.stallFrom, e.Shard)
			background("throttle.stall", at-from, tidStall)
		} else if s.To != "clear" && !open {
			t.stallFrom[e.Shard] = at
		}
	}
	if l0 > t.l0Max {
		t.l0Max = l0
	}
	t.mu.Unlock()
	if bg != nil {
		bg.id = t.nextID.Add(1)
		t.add(*bg)
	}
}

// stop ends recording at the end of the window.
func (t *tracer) stop() { t.stopped.Store(true) }

// resetWindow drops what was recorded before the measured window:
// spans and Level-0 counts from set-up and warm-up.
func (t *tracer) resetWindow() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.dropped = 0
	t.l0Max = 0
	t.mu.Unlock()
}

// l0FilesMax reports the largest Level-0 file count any event carried.
func (t *tracer) l0FilesMax() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.l0Max
}

// goroutineID returns the calling goroutine's id, parsed from the
// first line of its stack trace ("goroutine 42 [running]:"). The
// standard library offers no cheaper way.
func goroutineID() int64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	s := strings.TrimPrefix(string(buf[:n]), "goroutine ")
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseInt(s, 10, 64)
	return id
}

// iterTimer times the iterator calls of one scan.
type iterTimer struct {
	clk            clock.Clock
	begun          bool
	t0, seek, last time.Time
	nexts          int
}

func (it *iterTimer) begin() {
	if it == nil {
		return
	}
	it.begun, it.nexts = true, 0
	it.t0 = it.clk.Now()
	it.seek, it.last = it.t0, it.t0
}

func (it *iterTimer) seeked() {
	if it != nil {
		it.seek = it.clk.Now()
		it.last = it.seek
	}
}

func (it *iterTimer) stepped() {
	if it != nil {
		it.last = it.clk.Now()
		it.nexts++
	}
}

// finish reparents filesystem spans made inside an operation onto the
// stage span that covers their midpoint, so that a block read during
// a Level-0 probe is counted out of the probe's self time, not the
// operation's. It returns the spans sorted by start, and how many were
// dropped over the cap.
func (t *tracer) finish() (spans []span, dropped int64) {
	t.mu.Lock()
	spans = append([]span(nil), t.spans...)
	dropped = t.dropped
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	stages := make(map[uint64][]int) // op span id → indexes of its stage children
	for i := range spans {
		s := &spans[i]
		if s.parent != 0 && !strings.HasPrefix(s.name, "vfs.") {
			stages[s.parent] = append(stages[s.parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.parent == 0 || !strings.HasPrefix(s.name, "vfs.") {
			continue
		}
		mid := s.start + (s.end-s.start)/2
		for _, j := range stages[s.parent] {
			if c := &spans[j]; c.start <= mid && mid < c.end {
				s.parent = c.id
				break
			}
		}
	}
	return spans, dropped
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name      string
	count     int
	total     time.Duration
	self      time.Duration
	perSample float64 // self µs per kept span
}

// selfTimes computes each span name's total and self time. A span's
// self time is its duration minus the part of it its children cover.
func selfTimes(spans []span) []layerRow {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		covered := coverage(s, children[s.id])
		r := rows[s.name]
		if r == nil {
			r = &layerRow{name: s.name}
			rows[s.name] = r
		}
		r.count++
		r.total += s.end - s.start
		r.self += s.end - s.start - covered
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		r.perSample = float64(r.self) / 1e3 / float64(r.count)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// coverage returns how much of parent's interval the union of kids
// covers (kids are sorted by start).
func coverage(parent span, kids []span) time.Duration {
	var covered time.Duration
	cur := parent.start
	for _, k := range kids {
		from, to := k.start, k.end
		if from < cur {
			from = cur
		}
		if to > parent.end {
			to = parent.end
		}
		if to > from {
			covered += to - from
			cur = to
		}
	}
	return covered
}

func printSelfTimes(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "self time by span (kept spans; self = duration − children)\n")
	fmt.Fprintf(w, "  %-28s %-9s %9s %12s %12s %12s\n", "span", "layer", "count", "total_ms", "self_ms", "self_us/span")
	for _, r := range rows {
		layer := (&span{name: r.name}).layer()
		fmt.Fprintf(w, "  %-28s %-9s %9d %12.3f %12.3f %12.3f\n", r.name, layer, r.count,
			float64(r.total)/1e6, float64(r.self)/1e6, r.perSample)
	}
}

// writeChrome writes spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), readable by chrome://tracing and
// Perfetto. meta goes into otherData.
func writeChrome(file string, spans []span, meta map[string]string) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]uint64 `json:"args"`
	}
	if _, err := fmt.Fprint(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":"); err != nil {
		f.Close()
		return err
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(meta); err != nil {
		f.Close()
		return err
	}
	fmt.Fprint(w, ",\"traceEvents\":[\n")
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		err := enc.Encode(event{
			Name: s.name, Cat: s.layer(), Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.tid,
			Args: map[string]uint64{"id": s.id, "parent": s.parent, "op": s.op},
		})
		if err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
