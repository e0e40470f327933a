package sim

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xpointdb/internal/clock"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := New(t0)
	k.Run(func() {
		k.Sleep(5 * time.Second)
	})
	if got := k.Elapsed(); got != 5*time.Second {
		t.Fatalf("elapsed = %v, want 5s", got)
	}
	if got := k.Now(); !got.Equal(t0.Add(5 * time.Second)) {
		t.Fatalf("Now = %v", got)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	k := New(t0)
	k.Run(func() {
		k.Sleep(0)
		k.Sleep(-time.Second)
	})
	if got := k.Elapsed(); got != 0 {
		t.Fatalf("elapsed = %v, want 0", got)
	}
}

func TestVirtualTimeIsFast(t *testing.T) {
	// A year of virtual time should simulate in well under a second.
	k := New(t0)
	wall := time.Now()
	k.Run(func() {
		for i := 0; i < 365; i++ {
			k.Sleep(24 * time.Hour)
		}
	})
	if got := k.Elapsed(); got != 365*24*time.Hour {
		t.Fatalf("elapsed = %v", got)
	}
	if w := time.Since(wall); w > 5*time.Second {
		t.Fatalf("simulation took %v of wall time", w)
	}
}

func TestParallelSleepersOverlap(t *testing.T) {
	// N processes each sleeping 1s concurrently => total virtual time 1s.
	k := New(t0)
	var wg sync.WaitGroup
	k.Run(func() {
		m := k.NewMutex()
		c := k.NewCond(m)
		remaining := 8
		for i := 0; i < 8; i++ {
			wg.Add(1)
			k.Go("sleeper", func() {
				defer wg.Done()
				k.Sleep(time.Second)
				m.Lock()
				remaining--
				if remaining == 0 {
					c.Broadcast()
				}
				m.Unlock()
			})
		}
		m.Lock()
		for remaining > 0 {
			c.Wait()
		}
		m.Unlock()
		wg.Wait()
	})
	if got := k.Elapsed(); got != time.Second {
		t.Fatalf("elapsed = %v, want 1s (sleeps must overlap)", got)
	}
}

func TestSequentialSleepersAccumulate(t *testing.T) {
	k := New(t0)
	k.Run(func() {
		for i := 0; i < 10; i++ {
			k.Sleep(100 * time.Millisecond)
		}
	})
	if got := k.Elapsed(); got != time.Second {
		t.Fatalf("elapsed = %v, want 1s", got)
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	k := New(t0)
	var woken int32
	k.Run(func() {
		m := k.NewMutex()
		c := k.NewCond(m)
		ready := k.NewCond(m)
		waiting := 0
		for i := 0; i < 3; i++ {
			k.Go("waiter", func() {
				m.Lock()
				waiting++
				ready.Signal()
				c.Wait()
				atomic.AddInt32(&woken, 1)
				m.Unlock()
			})
		}
		m.Lock()
		for waiting < 3 {
			ready.Wait()
		}
		m.Unlock()

		k.Sleep(time.Millisecond)
		c.Signal()
		k.Sleep(time.Millisecond)
		if n := atomic.LoadInt32(&woken); n != 1 {
			t.Errorf("after one Signal, woken = %d, want 1", n)
		}
		c.Broadcast()
		k.Sleep(time.Millisecond)
		if n := atomic.LoadInt32(&woken); n != 3 {
			t.Errorf("after Broadcast, woken = %d, want 3", n)
		}
	})
}

func TestCondWaitReleasesTimeToSleepers(t *testing.T) {
	// main waits on a cond while a worker sleeps 2s then signals;
	// virtual time must advance to 2s (the cond waiter must not be
	// counted as runnable).
	k := New(t0)
	k.Run(func() {
		m := k.NewMutex()
		c := k.NewCond(m)
		done := false
		k.Go("worker", func() {
			k.Sleep(2 * time.Second)
			m.Lock()
			done = true
			c.Signal()
			m.Unlock()
		})
		m.Lock()
		for !done {
			c.Wait()
		}
		m.Unlock()
	})
	if got := k.Elapsed(); got != 2*time.Second {
		t.Fatalf("elapsed = %v, want 2s", got)
	}
}

func TestTimerOrdering(t *testing.T) {
	// Wakeups must happen in timestamp order regardless of creation order.
	k := New(t0)
	var order []int
	var mu sync.Mutex
	k.Run(func() {
		var wg sync.WaitGroup
		delays := []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
		ids := []int{3, 1, 2}
		for i := range delays {
			wg.Add(1)
			d, id := delays[i], ids[i]
			k.Go("p", func() {
				defer wg.Done()
				k.Sleep(d)
				mu.Lock()
				order = append(order, id)
				mu.Unlock()
			})
		}
		// Park main until all finish: sleep longer than all of them.
		k.Sleep(100 * time.Millisecond)
		wg.Wait()
	})
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wake order = %v, want [1 2 3]", order)
	}
}

func TestDeadlockPanics(t *testing.T) {
	k := New(t0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on deadlock")
		}
	}()
	k.Run(func() {
		m := k.NewMutex()
		c := k.NewCond(m)
		m.Lock()
		c.Wait() // nobody will ever signal
		m.Unlock()
	})
}

// TestUntrackedSleepPanics: a goroutine started with the go statement
// instead of Go is invisible to the kernel, so its Sleep takes away a
// runnable count it never added. With no tracked process running the
// count goes negative, and the kernel must panic with a process dump
// rather than let virtual time run past live work.
func TestUntrackedSleepPanics(t *testing.T) {
	k := New(t0)
	got := make(chan interface{}, 1)
	go func() {
		defer func() { got <- recover() }()
		k.Sleep(time.Millisecond)
	}()
	var r interface{}
	select {
	case r = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("untracked Sleep neither returned nor panicked")
	}
	msg, ok := r.(string)
	if !ok || !strings.Contains(msg, "went negative") || !strings.Contains(msg, "live processes") {
		t.Fatalf("untracked Sleep: recovered %v, want the negative-count panic with a process dump", r)
	}
	// The panic released the kernel lock.
	if e := k.Elapsed(); e != 0 {
		t.Fatalf("virtual time advanced to %v", e)
	}
}

func TestOnIdleHookSuppressesPanic(t *testing.T) {
	// Main waits on a cond nobody signals; instead of panicking, the
	// OnIdle hook injects the signal (modelling an external event
	// source that is invisible to the kernel).
	k := New(t0)
	m := k.NewMutex()
	c := k.NewCond(m)
	done := false
	var calls int32
	k.OnIdle = func() {
		atomic.AddInt32(&calls, 1)
		m.Lock()
		done = true
		c.Signal()
		m.Unlock()
	}
	k.Run(func() {
		m.Lock()
		for !done {
			c.Wait()
		}
		m.Unlock()
	})
	if atomic.LoadInt32(&calls) == 0 {
		t.Fatal("OnIdle was never called")
	}
}

func TestGoRunsTrackedProcess(t *testing.T) {
	k := New(t0)
	var ran int32
	k.Run(func() {
		m := k.NewMutex()
		c := k.NewCond(m)
		done := false
		k.Go("child", func() {
			atomic.StoreInt32(&ran, 1)
			m.Lock()
			done = true
			c.Signal()
			m.Unlock()
		})
		m.Lock()
		for !done {
			c.Wait()
		}
		m.Unlock()
	})
	if ran != 1 {
		t.Fatal("child process did not run")
	}
}

func TestKernelImplementsClock(t *testing.T) {
	var _ clock.Clock = New(t0)
}

func TestManyEventsSameInstant(t *testing.T) {
	k := New(t0)
	var n int32
	k.Run(func() {
		var wg sync.WaitGroup
		for i := 0; i < 100; i++ {
			wg.Add(1)
			k.Go("p", func() {
				defer wg.Done()
				k.Sleep(time.Second) // all wake at the same instant
				atomic.AddInt32(&n, 1)
			})
		}
		k.Sleep(2 * time.Second)
		wg.Wait()
	})
	if n != 100 {
		t.Fatalf("woke %d, want 100", n)
	}
	if got := k.Elapsed(); got != 2*time.Second {
		t.Fatalf("elapsed = %v", got)
	}
}

// TestNestedSleepChains stresses interleaved sleeps from many processes
// with differing periods and checks total virtual time.
func TestNestedSleepChains(t *testing.T) {
	k := New(t0)
	k.Run(func() {
		var wg sync.WaitGroup
		for p := 1; p <= 5; p++ {
			wg.Add(1)
			period := time.Duration(p) * time.Millisecond
			k.Go("chain", func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					k.Sleep(period)
				}
			})
		}
		k.Sleep(600 * time.Millisecond) // longest chain: 5ms*100 = 500ms
		wg.Wait()
	})
	if got := k.Elapsed(); got != 600*time.Millisecond {
		t.Fatalf("elapsed = %v, want 600ms", got)
	}
}
