// Package timers reproduces the paper's Figure 11: the entire timer
// facility — start, clear, expiration — built from nothing but the
// scheduler's fork and sleep plus one heap-allocated boolean of shared
// state. The paper singles this out as evidence that higher-order
// functions plus fast thread creation make traditionally slow timer code
// "simple and fast".
//
// The semantics are Fig. 11's exactly: a started timer is a forked thread
// that sleeps and then runs its handler unless the boolean was set. Only
// the cost differs. SML/NJ forked a thread by capturing a continuation; a
// goroutine is far heavier, and nearly every timer is cleared before it
// expires. So the thread is sim.ForkTimer's scheduler entry, which the
// scheduler sleeps and tests in place: a coroutine appears only when a
// timer fires and its handler runs.
package timers

import "repro/internal/sim"

// Timer is the updatable cell returned by Start; Clear sets it, and the
// timer thread checks it after sleeping. The embedded cell also holds the
// handler, which Clear drops.
type Timer struct {
	sim.TimerCell
}

// Start forks a thread that sleeps for d of virtual time and then invokes
// handler — unless the returned timer was cleared in the meantime. This is
// the paper's `start`:
//
//	fun start (handler, ms) =
//	  let val cleared = ref false
//	      fun sleep () = (Scheduler.sleep (ms);
//	                      if !cleared then () else handler ())
//	  in Scheduler.fork (Scheduler.Normal sleep); cleared end
func Start(s *sim.Scheduler, handler func(), d sim.Duration) *Timer {
	t := &Timer{sim.TimerCell{Handler: handler}}
	s.ForkTimer(d, &t.TimerCell)
	return t
}

// Clear prevents the handler from running if it has not run yet. Clearing
// an expired or already-cleared timer is a no-op; the timer, if still
// sleeping, wakes, observes the flag, and ends silently. The handler is
// released at once, so what it captured (a connection, say) is not kept
// alive until the wake time.
func (t *Timer) Clear() {
	if t != nil {
		t.TimerCell = sim.TimerCell{Cleared: true}
	}
}

// Cleared reports whether Clear was called.
func (t *Timer) Cleared() bool { return t != nil && t.TimerCell.Cleared }
