package timers

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
)

// refStart is Fig. 11 built the direct way: Start forks a goroutine-backed
// thread that sleeps and then tests the flag. It is the oracle for Start,
// whose timer is a scheduler entry that the scheduler sleeps and tests in
// place; every program must produce the same schedule under both.
func refStart(s *sim.Scheduler, handler func(), d sim.Duration, fires *uint64) *Timer {
	t := &Timer{}
	s.Fork("timer", func() {
		s.Sleep(d)
		if !t.TimerCell.Cleared {
			*fires++
			handler()
		}
	})
	return t
}

type opKind uint8

const (
	opFork opKind = iota
	opSleep
	opYield
	opWait
	opSignal
	opStart
	opClear
	opCharge
	numOps
)

// op is one step of a thread program. Fork and Start carry the body of
// the forked thread or of the timer's handler.
type op struct {
	kind opKind
	d    sim.Duration // Sleep, Charge and Start
	prio int          // Fork
	n    int          // Wait/Signal: condition index; Clear: timer index
	body []op
}

const numConds = 2

// genProg draws a random thread program. Durations are a few virtual
// nanoseconds, non-positive included, so that wakes collide often.
func genProg(r *rand.Rand, depth, n int) []op {
	prog := make([]op, 0, n)
	for i := 0; i < n; i++ {
		o := op{kind: opKind(r.Intn(int(numOps))), d: sim.Duration(r.Intn(9) - 2)}
		switch o.kind {
		case opFork, opStart:
			if depth == 0 {
				o.kind = opYield
				break
			}
			o.prio = r.Intn(3)
			o.body = genProg(r, depth-1, r.Intn(5))
		case opWait, opSignal:
			o.n = r.Intn(numConds)
		case opClear:
			o.n = r.Intn(8)
		}
		prog = append(prog, o)
	}
	return prog
}

// world interprets thread programs on one scheduler and records the
// schedule they produce: each step with its virtual time and thread.
type world struct {
	s      *sim.Scheduler
	ref    bool
	fires  uint64 // handler runs, counted by refStart
	timers []*Timer
	conds  [numConds]*sim.Cond
	fired  map[int]sim.Time
	trace  strings.Builder
}

func (w *world) start(handler func(), d sim.Duration) *Timer {
	if w.ref {
		return refStart(w.s, handler, d, &w.fires)
	}
	return Start(w.s, handler, d)
}

func (w *world) log(format string, args ...any) {
	fmt.Fprintf(&w.trace, "%d ", w.s.Now())
	fmt.Fprintf(&w.trace, format, args...)
	w.trace.WriteByte('\n')
}

func (w *world) run(name string, prog []op, main bool) {
	for i, o := range prog {
		w.log("%s/%d kind=%d", name, i, o.kind)
		switch o.kind {
		case opFork:
			child, body := fmt.Sprintf("%s.%d", name, i), o.body
			w.s.ForkPrio(child, o.prio, func() { w.run(child, body, false) })
		case opSleep:
			w.s.Sleep(o.d)
		case opYield:
			w.s.Yield()
		case opWait:
			if !main { // main never blocks, so no program deadlocks
				w.conds[o.n].Wait()
			}
		case opSignal:
			w.conds[o.n].Signal()
		case opStart:
			id, body := len(w.timers), o.body
			w.timers = append(w.timers, w.start(func() {
				w.fired[id] = w.s.Now()
				w.run(fmt.Sprintf("timer%d", id), body, false)
			}, o.d))
		case opClear:
			if len(w.timers) > 0 {
				w.timers[o.n%len(w.timers)].Clear()
			}
		case opCharge:
			w.s.Charge(o.d)
		}
	}
	w.log("%s done", name)
}

// outcome is everything the two timer implementations must agree on.
type outcome struct {
	trace                      string
	fired                      map[int]sim.Time
	now                        sim.Time
	forks, switches, timerFire uint64
	readyHW                    int
}

func play(cfg sim.Config, prog []op, ref bool) outcome {
	w := &world{s: sim.New(cfg), ref: ref, fired: map[int]sim.Time{}}
	for i := range w.conds {
		w.conds[i] = sim.NewCond(w.s)
	}
	var end sim.Time
	w.s.Run(func() {
		w.run("main", prog, true)
		end = w.s.Now()
	})
	fires := w.s.TimerFires()
	if ref {
		fires = w.fires
	}
	return outcome{w.trace.String(), w.fired, end, w.s.Forks(), w.s.Switches(), fires, w.s.ReadyHighWater()}
}

var oracleConfigs = []struct {
	name string
	cfg  sim.Config
}{
	{"fifo", sim.Config{}},
	{"priority", sim.Config{Priority: true}},
	{"fifo-costs", sim.Config{ForkCost: 2, SwitchCost: 3}},
	{"priority-costs", sim.Config{Priority: true, ForkCost: 2, SwitchCost: 3}},
}

// checkSame runs prog under Start and under refStart and fails on any
// difference in schedule or scheduler counts. It returns Start's outcome.
func checkSame(t *testing.T, cfg sim.Config, prog []op) outcome {
	t.Helper()
	got, want := play(cfg, prog, false), play(cfg, prog, true)
	if got.trace != want.trace {
		t.Fatalf("schedules differ\n--- heap-entry timers:\n%s--- fork-then-sleep timers:\n%s", got.trace, want.trace)
	}
	if fmt.Sprint(got.fired) != fmt.Sprint(want.fired) {
		t.Fatalf("fired %v, reference fired %v", got.fired, want.fired)
	}
	if got.now != want.now || got.forks != want.forks || got.switches != want.switches ||
		got.timerFire != want.timerFire || got.readyHW != want.readyHW {
		t.Fatalf("end %v forks %d switches %d fires %d readyHW %d; reference %v %d %d %d %d",
			got.now, got.forks, got.switches, got.timerFire, got.readyHW,
			want.now, want.forks, want.switches, want.timerFire, want.readyHW)
	}
	return got
}

func TestStartMatchesForkThenSleepOracle(t *testing.T) {
	for _, c := range oracleConfigs {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 200; seed++ {
				r := rand.New(rand.NewSource(seed))
				prog := append(genProg(r, 3, 6+r.Intn(10)), op{kind: opSleep, d: 20})
				checkSame(t, c.cfg, prog)
			}
		})
	}
}

func TestStartOracleEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		prog  []op
		fired map[int]sim.Time
	}{{
		// The waker's sleep seq precedes the timer's, so at t=10 it runs
		// first and clears the timer before its cleared test.
		name: "same-instant clear by earlier-seq waker",
		prog: []op{
			{kind: opFork, body: []op{{kind: opSleep, d: 10}, {kind: opClear, n: 0}}},
			{kind: opStart, d: 10},
			{kind: opSleep, d: 100},
		},
		fired: map[int]sim.Time{},
	}, {
		// The mirror: a later-seq waker at the same instant is too late.
		name: "same-instant clear by later-seq waker",
		prog: []op{
			{kind: opStart, d: 10},
			{kind: opFork, body: []op{{kind: opSleep, d: 10}, {kind: opClear, n: 0}}},
			{kind: opSleep, d: 100},
		},
		fired: map[int]sim.Time{0: 10},
	}, {
		// The sleep starts at the timer's first dispatch, after the charge.
		name: "charge between start and first dispatch",
		prog: []op{
			{kind: opStart, d: 10},
			{kind: opCharge, d: 5},
			{kind: opSleep, d: 100},
		},
		fired: map[int]sim.Time{0: 15},
	}, {
		name: "non-positive delay yields",
		prog: []op{
			{kind: opStart, d: 0},
			{kind: opStart, d: -5},
			{kind: opStart, d: 0, body: []op{{kind: opClear, n: 0}}},
			{kind: opClear, n: 1},
			{kind: opYield},
			{kind: opYield},
			{kind: opSleep, d: 1},
		},
		fired: map[int]sim.Time{0: 0, 2: 0},
	}}
	for _, tc := range cases {
		for _, c := range oracleConfigs {
			t.Run(tc.name+"/"+c.name, func(t *testing.T) {
				out := checkSame(t, c.cfg, tc.prog)
				// The expected instants assume no fork or switch cost.
				if c.cfg.ForkCost == 0 && fmt.Sprint(out.fired) != fmt.Sprint(tc.fired) {
					t.Fatalf("fired %v, want %v", out.fired, tc.fired)
				}
			})
		}
	}
}
