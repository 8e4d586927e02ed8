package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// simFrames returns the stacks of goroutines other than the caller's that
// have a frame in this package outside its tests, or that are suspended
// coroutines: a thread that outlived Run. A coroutine never resumed has no
// frame of ours yet, only runtime.corostart.
func simFrames() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var leaked []string
	// The first stack is the caller's own.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		for i, line := range strings.Split(g, "\n") {
			if i == 0 && strings.HasSuffix(line, "[coroutine]:") ||
				strings.HasPrefix(line, "repro/internal/sim.") && !strings.HasPrefix(line, "repro/internal/sim.Test") {
				leaked = append(leaked, g)
				break
			}
		}
	}
	return leaked
}

// runCatching runs fn on s and returns what Run panicked with, if anything.
func runCatching(s *Scheduler, fn func()) (r any) {
	defer func() { r = recover() }()
	s.Run(fn)
	return nil
}

// Every thread is a coroutine that Run's shutdown resumes to its end, so
// once Run returns — normally or by re-panicking — no goroutine is still
// inside the scheduler, however the threads were left.
func TestRunLeavesNoThreadCoroutine(t *testing.T) {
	cases := []struct {
		name  string
		fatal string // substring of the value Run re-panics with, if any
		body  func(s *Scheduler)
	}{{
		name: "forked, never dispatched",
		body: func(s *Scheduler) { s.Fork("never", func() {}) },
	}, {
		name: "blocked on a Cond",
		body: func(s *Scheduler) {
			c := NewCond(s)
			s.Fork("waiter", c.Wait)
			s.Yield()
		},
	}, {
		name: "sleeping",
		body: func(s *Scheduler) {
			s.Fork("sleeper", func() { s.Sleep(time.Hour) })
			s.Yield()
		},
	}, {
		name: "fired timer handler inside Sleep",
		body: func(s *Scheduler) {
			fired := false
			s.ForkTimer(time.Millisecond, &TimerCell{Handler: func() {
				fired = true
				s.Sleep(time.Hour)
			}})
			s.Sleep(time.Second)
			if !fired {
				panic("timer did not fire")
			}
		},
	}, {
		name:  "worker panics",
		fatal: "boom",
		body: func(s *Scheduler) {
			s.Fork("sleeper", func() { s.Sleep(time.Hour) })
			s.Fork("bomber", func() { panic("boom") })
			s.Sleep(time.Second)
		},
	}, {
		name:  "deadlock raised by a blocking thread",
		fatal: `deadlock at 0s: no ready or sleeping threads (2 blocked); current="waiter"`,
		body: func(s *Scheduler) {
			s.Fork("waiter", NewCond(s).Wait)
			NewCond(s).Wait()
		},
	}, {
		name:  "deadlock raised by an exiting thread",
		fatal: `deadlock at 0s: no ready or sleeping threads (1 blocked); current="quitter"`,
		body: func(s *Scheduler) {
			s.Fork("quitter", func() {})
			NewCond(s).Wait()
		},
	}}
	for _, tc := range cases {
		s := det()
		r := runCatching(s, func() { tc.body(s) })
		switch {
		case tc.fatal == "" && r != nil:
			t.Errorf("%s: Run panicked with %v", tc.name, r)
		case tc.fatal != "" && (r == nil || !strings.Contains(r.(string), tc.fatal)):
			t.Errorf("%s: Run panicked with %v, want %q", tc.name, r, tc.fatal)
		}
		if leaked := simFrames(); len(leaked) > 0 {
			t.Errorf("%s: after Run returned, %d goroutines are inside the scheduler:\n%s",
				tc.name, len(leaked), strings.Join(leaked, "\n\n"))
		}
	}
}
