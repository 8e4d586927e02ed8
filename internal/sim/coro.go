//go:build go1.23

package sim

import "iter"

// spawn makes t a runtime coroutine running fn, suspended until main first
// resumes it. Inside the coroutine, t.yield hands the CPU back to main.
// The coroutine always runs to its end — by exit, by a panic carried to
// Run, or by shutdown's kill — so its stop function is never needed.
func (s *Scheduler) spawn(t *Thread, fn func()) {
	t.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		s.threadBody(t, fn)
	})
}
