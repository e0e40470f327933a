// Package sim implements a process-oriented discrete-event simulation
// kernel that satisfies clock.Clock.
//
// Every goroutine participating in the simulation is a "process" that
// the kernel tracks. Virtual time advances only when every tracked
// process is blocked — either sleeping (Sleep) or waiting on a kernel
// condition variable (Cond.Wait). At that point the kernel jumps the
// clock to the earliest pending timer event and wakes its process(es).
// Processes therefore execute arbitrary amounts of Go code in zero
// virtual time; durations are charged explicitly via Sleep, which is
// how device models and CPU cost models express service times.
//
// Rules for code running under the kernel:
//
//   - Spawn concurrent work with Clock.Go, never with the go statement.
//   - Never call Sleep or Cond.Wait while holding a Mutex other than
//     the one associated with that Cond.
//   - Finish (or unblock) all processes before the function passed to
//     Run returns, or their remaining virtual work is abandoned.
//
// Scheduling of processes that are runnable at the same virtual instant
// is delegated to the Go scheduler, so event *ordering* within one
// instant is not deterministic; timer firing order is (ties broken by
// creation sequence). Experiments that need reproducibility should rely
// on seeded workloads and aggregate statistics.
package sim

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"
	"time"

	"xpointdb/internal/clock"
)

// Kernel is a virtual-time clock.Clock. Create one with New, start
// processes with Go, and drive the simulation with Run.
type Kernel struct {
	mu     sync.Mutex
	start  time.Time
	now    time.Duration // virtual time elapsed since start
	active int           // processes currently runnable
	events eventHeap
	seq    uint64 // tiebreaker so equal-time events fire in creation order

	mainDone bool
	runPanic interface{}    // panic from the main process, rethrown by Run
	procs    map[string]int // live process names -> count, for diagnostics

	// OnIdle, if non-nil, is invoked (with the kernel unlocked) when
	// the simulation would otherwise be stuck: no runnable process
	// and no pending event while the main process is still running.
	// If nil, the kernel panics with a process dump, since this state
	// is a virtual-time deadlock.
	OnIdle func()
}

var _ clock.Clock = (*Kernel)(nil)

type event struct {
	at  time.Duration
	seq uint64
	ch  chan struct{}
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// New returns a kernel whose virtual clock starts at start.
func New(start time.Time) *Kernel {
	return &Kernel{start: start, procs: make(map[string]int)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Time {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.start.Add(k.now)
}

// Elapsed returns the virtual time elapsed since the kernel started.
func (k *Kernel) Elapsed() time.Duration {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.now
}

// Sleep blocks the calling process for d of virtual time. It must only
// be called from a process tracked by the kernel (one started by Go or
// Run).
func (k *Kernel) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	k.mu.Lock()
	ch := make(chan struct{})
	heap.Push(&k.events, event{at: k.now + d, seq: k.seq, ch: ch})
	k.seq++
	k.blockLocked()
	k.mu.Unlock()
	<-ch
}

// Go starts fn as a new tracked process.
func (k *Kernel) Go(name string, fn func()) {
	k.mu.Lock()
	k.active++
	k.procs[name]++
	k.mu.Unlock()
	go func() {
		defer k.exit(name)
		fn()
	}()
}

// Run executes main as the root process and returns when it does.
// Virtual time during the call advances per the simulation rules. A
// panic inside the main process (including a simulation deadlock) is
// rethrown on the caller's goroutine. Run must not be called
// concurrently with itself.
func (k *Kernel) Run(main func()) {
	k.mu.Lock()
	k.active++
	k.procs["main"]++
	k.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				k.mu.Lock()
				k.runPanic = r
				k.mu.Unlock()
			}
			k.mu.Lock()
			k.mainDone = true
			k.mu.Unlock()
			k.exit("main")
		}()
		main()
	}()
	<-done
	k.mu.Lock()
	r := k.runPanic
	k.runPanic = nil
	k.mu.Unlock()
	if r != nil {
		panic(r)
	}
}

func (k *Kernel) exit(name string) {
	k.mu.Lock()
	k.procs[name]--
	if k.procs[name] <= 0 {
		delete(k.procs, name)
	}
	k.active--
	k.checkActiveLocked()
	k.advanceLocked()
	k.mu.Unlock()
}

// blockLocked marks the calling process as no longer runnable and, if
// that was the last runnable process, advances virtual time.
func (k *Kernel) blockLocked() {
	k.active--
	k.checkActiveLocked()
	k.advanceLocked()
}

// checkActiveLocked panics once more processes have blocked or exited
// than the kernel counts as runnable. The usual cause is a goroutine
// started with the go statement instead of Go that slept or waited:
// the kernel never counted it, so its blocking stole another process's
// count and virtual time may already have advanced past running work.
func (k *Kernel) checkActiveLocked() {
	if k.active >= 0 {
		return
	}
	msg := fmt.Sprintf("sim: runnable-process count went negative (%d) — an untracked goroutine slept or waited; live processes: %s",
		k.active, k.procDumpLocked())
	k.active++    // the caller unwinds with the panic
	k.mu.Unlock() // as in advanceLocked: let deferred cleanup take the lock
	panic(msg)
}

// wakeLocked marks one process runnable again and releases it.
func (k *Kernel) wakeLocked(ch chan struct{}) {
	k.active++
	close(ch)
}

// advanceLocked fires the earliest pending event(s) if no process is
// runnable. Called with k.mu held.
func (k *Kernel) advanceLocked() {
	if k.active > 0 {
		return
	}
	if len(k.events) == 0 {
		if k.mainDone {
			return // normal wind-down; leftover processes stay parked
		}
		if k.OnIdle != nil {
			f := k.OnIdle
			k.mu.Unlock()
			f()
			k.mu.Lock()
			return
		}
		// Release the kernel lock before panicking so deferred
		// cleanup (e.g. Run's exit) can still take it. The blocked
		// caller unwinds with the panic, so it is runnable again.
		msg := "sim: deadlock — no runnable process and no pending event; live processes: " + k.procDumpLocked()
		k.active++
		k.mu.Unlock()
		panic(msg)
	}
	t := k.events[0].at
	k.now = t
	for len(k.events) > 0 && k.events[0].at == t {
		e := heap.Pop(&k.events).(event)
		k.wakeLocked(e.ch)
	}
}

func (k *Kernel) procDumpLocked() string {
	names := make([]string, 0, len(k.procs))
	for n, c := range k.procs {
		names = append(names, fmt.Sprintf("%s×%d", n, c))
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// NewMutex returns a mutex usable by simulation processes. It is a
// plain sync.Mutex: a process blocked on it is still counted as
// runnable, which is correct as long as holders never sleep or wait
// while holding it (the package-level discipline).
func (k *Kernel) NewMutex() clock.Mutex { return &sync.Mutex{} }

// NewCond returns a virtual-time-aware condition variable bound to m.
func (k *Kernel) NewCond(m clock.Mutex) clock.Cond {
	return &cond{k: k, m: m}
}

// cond is a kernel-aware condition variable. Wait parks the process in
// kernel bookkeeping (so virtual time can advance past it); Signal and
// Broadcast make parked processes runnable again at the current
// instant.
type cond struct {
	k       *Kernel
	m       clock.Mutex
	waiters []chan struct{}
}

func (c *cond) Wait() {
	ch := make(chan struct{})
	c.k.mu.Lock()
	c.waiters = append(c.waiters, ch)
	c.k.mu.Unlock()
	// Release the user mutex before parking so that signalers (who
	// hold it by convention) can run. A Signal arriving between the
	// append above and blockLocked below is safe: it increments
	// active first, so the pair nets to zero and <-ch returns
	// immediately.
	c.m.Unlock()
	c.k.mu.Lock()
	c.k.blockLocked()
	c.k.mu.Unlock()
	<-ch
	c.m.Lock()
}

func (c *cond) Signal() {
	c.k.mu.Lock()
	if len(c.waiters) > 0 {
		ch := c.waiters[0]
		c.waiters = c.waiters[1:]
		c.k.wakeLocked(ch)
	}
	c.k.mu.Unlock()
}

func (c *cond) Broadcast() {
	c.k.mu.Lock()
	for _, ch := range c.waiters {
		c.k.wakeLocked(ch)
	}
	c.waiters = nil
	c.k.mu.Unlock()
}
