package timers

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestTimerFiresAtDeadline(t *testing.T) {
	s := sim.New(sim.Config{})
	var firedAt sim.Time = -1
	s.Run(func() {
		Start(s, func() { firedAt = s.Now() }, 20*time.Millisecond)
		s.Sleep(50 * time.Millisecond)
	})
	if firedAt != sim.Time(20*time.Millisecond) {
		t.Fatalf("fired at %v", time.Duration(firedAt))
	}
}

func TestClearedTimerDoesNotFire(t *testing.T) {
	s := sim.New(sim.Config{})
	fired := false
	s.Run(func() {
		tm := Start(s, func() { fired = true }, 10*time.Millisecond)
		s.Sleep(5 * time.Millisecond)
		tm.Clear()
		s.Sleep(20 * time.Millisecond)
	})
	if fired {
		t.Fatal("cleared timer fired")
	}
}

func TestClearAfterExpiryIsNoop(t *testing.T) {
	s := sim.New(sim.Config{})
	fired := 0
	s.Run(func() {
		tm := Start(s, func() { fired++ }, 1*time.Millisecond)
		s.Sleep(10 * time.Millisecond)
		tm.Clear() // too late, and must not panic or double-fire
		s.Sleep(10 * time.Millisecond)
	})
	if fired != 1 {
		t.Fatalf("fired %d times", fired)
	}
}

func TestClearNilTimerSafe(t *testing.T) {
	var tm *Timer
	tm.Clear()
	if tm.Cleared() {
		t.Fatal("nil timer claims cleared")
	}
}

func TestManyTimersFireInDeadlineOrder(t *testing.T) {
	s := sim.New(sim.Config{})
	var order []int
	s.Run(func() {
		delays := []time.Duration{30, 10, 20, 40, 5}
		for i, d := range delays {
			i := i
			Start(s, func() { order = append(order, i) }, d*time.Millisecond)
		}
		s.Sleep(100 * time.Millisecond)
	})
	want := []int{4, 1, 2, 0, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fire order %v, want %v", order, want)
		}
	}
}

func TestTimerRestartPattern(t *testing.T) {
	// TCP's retransmission timer is "restarted" by clear-then-start; the
	// old thread must stay silent.
	s := sim.New(sim.Config{})
	var fires []sim.Time
	s.Run(func() {
		h := func() { fires = append(fires, s.Now()) }
		tm := Start(s, h, 10*time.Millisecond)
		s.Sleep(6 * time.Millisecond)
		tm.Clear()
		tm = Start(s, h, 10*time.Millisecond) // fires at t=16ms
		s.Sleep(30 * time.Millisecond)
		tm.Clear()
	})
	if len(fires) != 1 || fires[0] != sim.Time(16*time.Millisecond) {
		t.Fatalf("fires = %v", fires)
	}
}

func TestClearedReflectsState(t *testing.T) {
	s := sim.New(sim.Config{})
	s.Run(func() {
		tm := Start(s, func() {}, time.Millisecond)
		if tm.Cleared() {
			t.Error("fresh timer claims cleared")
		}
		tm.Clear()
		if !tm.Cleared() {
			t.Error("cleared timer denies it")
		}
		s.Sleep(2 * time.Millisecond)
	})
}

// maxStartClearAllocs is the measured cost of a Start+Clear pair: the
// Timer cell and the scheduler entry, with no closure, channel or
// goroutine.
const maxStartClearAllocs = 2

func TestStartClearAllocs(t *testing.T) {
	s := sim.New(sim.Config{})
	handler := func() {}
	var allocs float64
	s.Run(func() {
		allocs = testing.AllocsPerRun(1000, func() { Start(s, handler, time.Hour).Clear() })
	})
	if allocs > maxStartClearAllocs {
		t.Fatalf("Start+Clear allocates %v times, want at most %d", allocs, maxStartClearAllocs)
	}
}

// settledGoroutines returns runtime.NumGoroutine once it has read the
// same for a run of samples, waiting at most two seconds of wall time.
// Goroutines an earlier test started (subtest runners, say) may still be
// exiting when the next test begins; counted into a baseline, they make an
// exact goroutine comparison fail for reasons outside the test.
func settledGoroutines() int {
	const stableSamples = 20
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); same < stableSamples && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// A started timer is a scheduler entry: neither starting nor clearing one
// creates a goroutine, and nor does the cleared timer's expiry.
func TestStartClearCreatesNoGoroutine(t *testing.T) {
	s := sim.New(sim.Config{})
	before := settledGoroutines()
	s.Run(func() {
		for i := 0; i < 10000; i++ {
			Start(s, func() { t.Error("cleared timer fired") }, time.Millisecond).Clear()
		}
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("10k Start/Clear pairs: %d goroutines, want %d", n, before)
		}
		s.Sleep(time.Second)
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("after the cleared timers expired: %d goroutines, want %d", n, before)
		}
	})
}

func TestRunReturnsWithPendingTimers(t *testing.T) {
	s := sim.New(sim.Config{})
	before := settledGoroutines()
	fired := 0
	s.Run(func() {
		for i := 0; i < 10000; i++ {
			Start(s, func() { fired++ }, time.Hour)
		}
		s.Sleep(time.Second)
	})
	if fired != 0 {
		t.Fatalf("%d timers fired before their deadline", fired)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("Run left %d goroutines, want %d", n, before)
	}
}

// A cleared timer drops its handler at Clear, not at its wake time, so a
// pending entry does not keep what the handler captured alive: TCP's 30 s
// user timeout and 2MSL TIME-WAIT timers capture their connection.
func TestClearReleasesHandler(t *testing.T) {
	const n, bufSize = 10000, 1 << 10
	s := sim.New(sim.Config{})
	var ms runtime.MemStats
	s.Run(func() {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		for i := 0; i < n; i++ {
			buf := make([]byte, bufSize)
			Start(s, func() { buf[0]++ }, time.Hour).Clear()
		}
		s.Yield() // every entry is now asleep in the sleep heap
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if held := int64(ms.HeapAlloc) - int64(before); held > n*bufSize/2 {
			t.Errorf("%d cleared timers hold %d heap bytes; their %d B handler buffers were not released", n, held, n*bufSize)
		}
	})
}
