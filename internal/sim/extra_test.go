package sim

import (
	"testing"
	"time"
)

func TestExcludeKeepsVirtualClockStill(t *testing.T) {
	s := New(Config{ChargeCPU: true, CPUScale: 1000})
	s.Run(func() {
		before := s.Now()
		s.Exclude(func() {
			// Burn real CPU that must NOT become virtual time.
			x := 0
			for i := 0; i < 2_000_000; i++ {
				x += i
			}
			_ = x
		})
		after := s.Now()
		// Only bracketing costs may appear (scheduling noise under -race
		// or -cover can reach tens of µs real ⇒ tens of ms virtual); the
		// burned loop itself — milliseconds real ⇒ seconds virtual —
		// must not.
		if d := time.Duration(after - before); d > 500*time.Millisecond {
			t.Fatalf("Exclude leaked %v into virtual time", d)
		}
	})
}

func TestChargeFactorMultipliesCPU(t *testing.T) {
	burn := func(s *Scheduler) time.Duration {
		before := s.Now()
		x := 0
		for i := 0; i < 3_000_000; i++ {
			x += i
		}
		_ = x
		return time.Duration(s.Now() - before)
	}
	// Real-time measurement is noisy (more so under -race or -cover
	// instrumentation); take the best of a few attempts before judging.
	for attempt := 0; attempt < 5; attempt++ {
		var base, factored time.Duration
		s := New(Config{ChargeCPU: true, CPUScale: 1000})
		s.Run(func() {
			base = burn(s)
			s.SetChargeFactor(8)
			factored = burn(s)
		})
		if factored >= base*3 {
			return
		}
		if attempt == 4 {
			t.Fatalf("factor 8 only scaled %v -> %v after %d attempts", base, factored, attempt+1)
		}
	}
}

func TestChargeFactorInheritedByForkedThreads(t *testing.T) {
	s := New(Config{ChargeCPU: true, CPUScale: 1000})
	s.Run(func() {
		s.SetChargeFactor(4)
		var childFactor, grandFactor float64
		s.Fork("child", func() {
			childFactor = s.ChargeFactor()
			s.Fork("grandchild", func() {
				grandFactor = s.ChargeFactor()
			})
			s.Yield()
		})
		s.SetChargeFactor(1) // parent resets itself; children keep theirs
		s.Sleep(time.Millisecond)
		if childFactor != 4 || grandFactor != 4 {
			t.Fatalf("inherited factors: child=%v grandchild=%v", childFactor, grandFactor)
		}
		if s.ChargeFactor() != 1 {
			t.Fatalf("parent factor = %v", s.ChargeFactor())
		}
	})
}

func TestChargeFactorNeutralWithoutCharging(t *testing.T) {
	s := New(Config{})
	s.Run(func() {
		s.SetChargeFactor(100)
		before := s.Now()
		x := 0
		for i := 0; i < 1_000_000; i++ {
			x += i
		}
		_ = x
		if s.Now() != before {
			t.Fatal("clock moved without ChargeCPU")
		}
	})
}

func TestSleepZeroAndNegativeYield(t *testing.T) {
	s := New(Config{})
	s.Run(func() {
		ran := false
		s.Fork("peer", func() { ran = true })
		s.Sleep(0) // must yield, not sleep
		if !ran {
			t.Fatal("Sleep(0) did not yield to the ready peer")
		}
		before := s.Now()
		s.Sleep(-time.Second)
		if s.Now() != before {
			t.Fatal("negative sleep moved the clock")
		}
	})
}

func TestManyThreadsStress(t *testing.T) {
	s := New(Config{})
	s.Run(func() {
		const n = 500
		done := 0
		for i := 0; i < n; i++ {
			i := i
			s.Fork("worker", func() {
				s.Sleep(time.Duration(i%17+1) * time.Millisecond)
				s.Yield()
				s.Sleep(time.Duration(i%5+1) * time.Millisecond)
				done++
			})
		}
		s.Sleep(time.Second)
		if done != n {
			t.Fatalf("%d of %d workers finished", done, n)
		}
	})
	if got := s.Forks(); got != 500 {
		t.Fatalf("Forks = %d", got)
	}
}

func TestCondWaitersCount(t *testing.T) {
	s := New(Config{})
	s.Run(func() {
		c := NewCond(s)
		for i := 0; i < 3; i++ {
			s.Fork("w", func() { c.Wait() })
		}
		s.Yield()
		if c.Waiters() != 3 {
			t.Fatalf("Waiters = %d", c.Waiters())
		}
		c.Broadcast()
		if c.Waiters() != 0 {
			t.Fatalf("Waiters after broadcast = %d", c.Waiters())
		}
		s.Yield()
	})
}

// The shutdown list drops dead threads, so 100k fork/exit cycles leave it
// proportional to the live threads, and shutdown still kills the
// survivors in fork order.
func TestThreadListBoundedByLiveThreads(t *testing.T) {
	s := New(Config{})
	var killed []int
	s.Run(func() {
		for i := 0; i < 100000; i++ {
			if i%10000 == 0 {
				i := i
				s.Fork("resident", func() {
					defer func() { killed = append(killed, i) }()
					for {
						s.Sleep(time.Hour)
					}
				})
			}
			s.Fork("transient", func() {})
			s.Yield()
			if c := cap(s.threads); c > 4*s.live {
				t.Fatalf("after %d cycles: %d slots for %d live threads", i+1, c, s.live)
			}
		}
	})
	for j, i := range killed {
		if i != j*10000 {
			t.Fatalf("kill order %v, want fork order", killed)
		}
	}
	if len(killed) != 10 {
		t.Fatalf("killed %d residents, want 10", len(killed))
	}
}
