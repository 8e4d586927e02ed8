// Command perfbench is the Fox Net benchmark. It builds the stack through
// foxnet with CPU charging off, so every round of a seed does the same
// protocol work and reaches the same virtual results, and measures what
// that work costs this Go program in CPU and wall-clock time.
//
//	perfbench --workload bulk|rpc|churn|lossy --seed N --seconds S --trace 0|1 [--spans FILE]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// attaches the observer planes and prints the per-layer metrics. The
// last line of standard output is one JSON object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "bulk, rpc, churn or lossy")
	seed := flag.Uint64("seed", 1, "workload seed; the documented default is 1 and the held-out seed 7")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	spansOut := flag.String("spans", "", "file to write the last traced round's spans to (JSON lines)")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	// The simulation runs one coroutine at a time. A second P would only
	// add cross-CPU handoffs between them, whose cost depends on how the
	// host schedules threads rather than on the stack's code.
	runtime.GOMAXPROCS(1)

	// The watchdog ends a run that hangs: it reports failure rather than
	// leaving the benchmark stuck.
	limit := time.Duration(min(*seconds*3+60, 170) * float64(time.Second))
	time.AfterFunc(limit, func() {
		emit(report{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		warn("watchdog: run exceeded %v of wall time", limit)
		os.Exit(1)
	})

	b := &bench{w: w, in: genInputs(*seed, fullSizes), sz: fullSizes}
	deadline := time.Duration(*seconds * float64(time.Second))
	var rep report
	var err error
	if *trace == 0 {
		rep, err = b.endToEnd(deadline)
	} else {
		rep, err = b.perLayer(deadline, *spansOut)
	}
	if err != nil {
		warn("%v", err)
		os.Exit(1)
	}
	emit(rep)
}

func emit(r report) {
	out, err := json.Marshal(r)
	if err != nil {
		panic(err) // a report of plain numbers always marshals
	}
	fmt.Println(string(out))
}

// bench is one run: a workload, its generated inputs, and every round
// measured so far.
type bench struct {
	w      *workload
	in     *inputs
	sz     sizes
	rounds []*result
}

// run measures the host reference, then runs one round of mode m.
func (b *bench) run(m mode) *result {
	host := hostRef() / hostRefRate
	r := runRound(b.w, b.in, b.sz, m)
	r.host = host
	b.rounds = append(b.rounds, r)
	for _, e := range r.errs {
		warn("%s %s round: %s", b.w.name, m.arm, e)
	}
	if r.spans != nil && r.spans.dropped > 0 {
		warn("%s traced round: %d spans dropped, buffer full", b.w.name, r.spans.dropped)
	}
	return r
}

// measure runs one warm-up round of each mode, then cycles through the
// modes until d has passed, rotating which mode goes first so that no
// mode always follows another. It returns the measured rounds per mode.
func (b *bench) measure(d time.Duration, modes []mode) [][]*result {
	for _, m := range modes {
		b.run(m) // warm-up: not measured, but checked
	}
	out := make([][]*result, len(modes))
	end := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		for j := range modes {
			k := (i + j) % len(modes)
			out[k] = append(out[k], b.run(modes[k]))
		}
	}
	return out
}

// verdict totals ops and failures over every round of the run and
// applies the determinism gate: every unfaulted round of an arm without
// CPU charging must repeat the same fingerprint.
func (b *bench) verdict() (report, error) {
	rep := report{Metrics: map[string]metric{}}
	first := map[arm]*result{}
	for _, r := range b.rounds {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		if r.failed > 0 || r.mode.probe {
			continue
		}
		f, ok := first[r.mode.arm]
		if !ok {
			first[r.mode.arm] = r
			continue
		}
		if f.fp != r.fp {
			return rep, fmt.Errorf("determinism gate: %s %s round (traced=%v) fingerprint %+v differs from %+v (traced=%v); refusing to report",
				b.w.name, r.mode.arm, r.mode.traced, r.fp, f.fp, f.mode.traced)
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	for a, f := range first {
		fp, _ := json.Marshal(f.fp)
		fmt.Printf("fingerprint %s %s seed %d: %s\n", b.w.name, a, b.in.seed, fp)
	}
	return rep, nil
}

// endToEnd alternates Fox and baseline rounds with tracing off and
// reports what a user of the stack sees.
func (b *bench) endToEnd(d time.Duration) (report, error) {
	got := b.measure(d, []mode{{arm: fox}, {arm: xkernel}})
	foxR, xkR := got[0], got[1]
	rep, err := b.verdict()
	if err != nil {
		return rep, err
	}
	// Times are scaled by the host reference's speed next to each round,
	// and rates divided by it: they read as on a host of speed 1.
	var lat []float64
	for _, r := range foxR {
		for _, l := range r.lat {
			lat = append(lat, float64(l)/1e3*r.host)
		}
	}
	ratios := make([]float64, len(foxR))
	for i := range foxR {
		ratios[i] = normOpsPerSec(foxR[i]) / normOpsPerSec(xkR[i])
	}
	m := rep.Metrics
	m["goodput_norm_MBps"] = metric{medianOf(foxR, func(r *result) float64 { return float64(r.bytes) / r.cpu.Seconds() / 1e6 / r.host }), "MB/s"}
	m["ops_norm_per_s"] = metric{medianOf(foxR, normOpsPerSec), "1/s"}
	m["latency_norm_p50_us"] = metric{quantile(lat, 0.50), "us"}
	m["table1_ratio"] = metric{median(ratios), "ratio"}
	m["setup_s"] = metric{medianOf(foxR, func(r *result) float64 { return r.setup.Seconds() * r.host }), "s"}
	m["live_heap_MB"] = metric{medianOf(foxR, func(r *result) float64 { return float64(r.heap) / 1e6 }), "MB"}
	fmt.Printf("%s seed %d: %d fox and %d x-kernel rounds; %d latency samples\n",
		b.w.name, b.in.seed, len(foxR), len(xkR), len(lat))
	printMetrics(m)
	return rep, nil
}

// opsPerCPUSec is a round's ops per second of process CPU time.
func opsPerCPUSec(r *result) float64 { return float64(r.ops) / r.cpu.Seconds() }

// normOpsPerSec is opsPerCPUSec on a host of speed 1: divided by the
// host reference's speed next to the round.
func normOpsPerSec(r *result) float64 { return opsPerCPUSec(r) / r.host }

// perOp is the per-layer denominator: KiB delivered for the stream
// workloads, ops otherwise.
func (b *bench) perOp(r *result) float64 {
	if b.w.perKiB {
		return float64(r.bytes) / 1024
	}
	return float64(r.ops)
}

// perLayer interleaves untraced and traced Fox rounds with untraced
// baseline rounds, then runs one CPU-charged probe round, and reports
// each layer's work per op.
func (b *bench) perLayer(d time.Duration, spansOut string) (report, error) {
	got := b.measure(d, []mode{{arm: fox}, {arm: fox, traced: true}, {arm: xkernel}})
	plain, traced, xk := got[0], got[1], got[2]
	probe := b.run(mode{arm: fox, probe: true})
	rep, err := b.verdict()
	if err != nil {
		return rep, err
	}
	m := rep.Metrics
	delta := func(rs []*result, f func(c *counters) float64) float64 {
		return medianOf(rs, func(r *result) float64 { return (f(&r.end) - f(&r.start)) / b.perOp(r) })
	}
	u := func(x uint64) float64 { return float64(x) }

	// sim: the cooperative scheduler.
	m["sim.switches_per_op"] = metric{delta(plain, func(c *counters) float64 { return u(c.switches) }), "1/op"}
	m["sim.forks_per_op"] = metric{delta(plain, func(c *counters) float64 { return u(c.forks) }), "1/op"}
	m["sim.ready_high_water"] = metric{medianOf(plain, func(r *result) float64 { return float64(r.readyHW) }), "count"}

	// timers.
	action := func(name string) func(c *counters) float64 {
		return func(c *counters) float64 { return u(c.actions[name]) }
	}
	m["timers.set_per_op"] = metric{delta(traced, action("Set_Timer")), "1/op"}
	m["timers.cleared_per_op"] = metric{delta(traced, action("Clear_Timer")), "1/op"}
	m["timers.fired_per_op"] = metric{delta(plain, func(c *counters) float64 { return u(c.timerFires) }), "1/op"}
	m["runtime.goroutines_peak"] = metric{medianOf(traced, func(r *result) float64 { return float64(r.goroutinesPeak) }), "count"}

	// tcp: the executor's actions and the four synchronous modules.
	m["tcp.actions_per_op"] = metric{delta(traced, func(c *counters) float64 {
		n := 0.0
		for _, v := range c.actions {
			n += u(v)
		}
		return n
	}), "1/op"}
	m["tcp.action_wait_p50_ns"] = metric{float64(probe.actionWaitP50), "ns"}
	m["tcp.action_wait_p99_ns"] = metric{float64(probe.actionWaitP99), "ns"}
	for _, mod := range []string{"receive", "send", "resend", "state"} {
		m["tcp."+mod+".ns_per_op"] = metric{delta(traced, func(c *counters) float64 { return float64(c.moduleWall[mod]) }), "ns/op"}
	}
	m["tcp.segs_out_per_op"] = metric{delta(plain, func(c *counters) float64 { return u(c.segsOut) }), "1/op"}
	m["tcp.retrans_ratio"] = metric{medianOf(plain, func(r *result) float64 {
		return u(r.end.retrans-r.start.retrans) / u(max(r.end.segsOut-r.start.segsOut, 1))
	}), "ratio"}
	var sp spans
	for _, r := range traced {
		sp.buf = append(sp.buf, r.spans.buf...)
	}
	m["tcp.open_us_p50"] = metric{quantile(sp.durations(spanOpen), 0.5), "us"}
	m["tcp.close_us_p50"] = metric{quantile(sp.durations(spanClose), 0.5), "us"}
	m["tcp.write_us_p50"] = metric{quantile(sp.durations(spanWrite), 0.5), "us"}
	m["tcp.deliver_us_p50"] = metric{quantile(sp.durations(spanDeliver), 0.5), "us"}
	m["trace.op_self_us_p50"] = metric{quantile(sp.selfTimes(), 0.5), "us"}

	// ip, ethernet, checksum, copy: the Table 2 profile. Section times
	// are real only in the CPU-charged probe round; counts are exact in
	// every traced round.
	cpu := 0.0
	share := map[string]float64{}
	for _, row := range []string{"TCP", "IP", "eth, dev interf.", "copy", "checksum", "misc."} {
		share[row] = float64(probe.end.profTime[row] - probe.start.profTime[row])
		cpu += share[row]
	}
	pct := func(row string) float64 { return 100 * share[row] / max(cpu, 1) }
	m["ip.busy_pct"] = metric{pct("IP"), "%"}
	m["ethernet.busy_pct"] = metric{pct("eth, dev interf."), "%"}
	m["checksum.busy_pct"] = metric{pct("checksum"), "%"}
	m["copy.busy_pct"] = metric{pct("copy"), "%"}
	m["copy.copies_per_KB"] = metric{medianOf(traced, func(r *result) float64 {
		return u(r.end.profCount["copy"]-r.start.profCount["copy"]) / (float64(r.bytes) / 1024)
	}), "1/KB"}

	// wire.
	m["wire.frames_per_op"] = metric{delta(plain, func(c *counters) float64 { return u(c.frames) }), "1/op"}
	m["wire.lost_per_op"] = metric{delta(plain, func(c *counters) float64 { return u(c.lost) }), "1/op"}
	m["wire.bytes_per_op"] = metric{medianOf(traced, func(r *result) float64 { return float64(r.wireBytes) / b.perOp(r) }), "B/op"}
	m["wire.payload_efficiency"] = metric{medianOf(traced, func(r *result) float64 { return float64(r.bytes) / float64(max(r.wireBytes, 1)) }), "ratio"}

	// Go runtime, untraced.
	m["runtime.allocs_per_op"] = metric{delta(plain, func(c *counters) float64 { return u(c.allocs) }), "1/op"}
	m["runtime.alloc_bytes_per_op"] = metric{delta(plain, func(c *counters) float64 { return u(c.allocBytes) }), "B/op"}
	m["runtime.gc_cycles_per_op"] = metric{delta(plain, func(c *counters) float64 { return u(c.gcs) }), "1/op"}
	m["runtime.gc_pause_total_ms"] = metric{medianOf(plain, func(r *result) float64 { return u(r.end.pauseNS-r.start.pauseNS) / 1e6 }), "ms"}

	// baseline: the denominator of table1_ratio.
	m["baseline.allocs_per_op"] = metric{delta(xk, func(c *counters) float64 { return u(c.allocs) }), "1/op"}
	m["baseline.switches_per_op"] = metric{delta(xk, func(c *counters) float64 { return u(c.switches) }), "1/op"}

	// The tail of the end-to-end latency: it repeats too loosely from
	// run to run to carry a regression bound.
	var lat, vlat []float64
	for _, r := range plain {
		for i := range r.lat {
			lat = append(lat, float64(r.lat[i])/1e3)
			vlat = append(vlat, float64(r.virtLat[i])/1e3)
		}
	}
	m["latency_p99_us"] = metric{quantile(lat, 0.99), "us"}
	m["latency_samples"] = metric{float64(len(lat)), "count"}

	// Rates by the wall clock. They include CPU time the host gave to
	// other machines, so they spread too widely to carry a bound.
	m["wall.goodput_MBps"] = metric{medianOf(plain, func(r *result) float64 { return float64(r.bytes) / r.elapsed.Seconds() / 1e6 }), "MB/s"}
	m["wall.ops_per_s"] = metric{medianOf(plain, func(r *result) float64 { return float64(r.ops) / r.elapsed.Seconds() }), "1/s"}

	// The raw rate the normalised end-to-end rates are derived from, and
	// the host speed they were divided by.
	m["cpu.ops_per_s"] = metric{medianOf(plain, opsPerCPUSec), "1/s"}
	m["host.ref_speed"] = metric{medianOf(b.rounds, func(r *result) float64 { return r.host }), "ratio"}

	// Deterministic protocol behaviour.
	m["virt.Mbps"] = metric{medianOf(plain, func(r *result) float64 { return float64(r.bytes) * 8 / (float64(r.virt) / 1e9) / 1e6 }), "Mbit/s"}
	m["virt.latency_p50_us"] = metric{quantile(vlat, 0.5), "us"}

	// What tracing costs.
	m["trace.overhead_pct"] = metric{100 * (medianOf(plain, normOpsPerSec)/medianOf(traced, normOpsPerSec) - 1), "%"}
	m["trace.spans_per_op"] = metric{medianOf(traced, func(r *result) float64 { return float64(len(r.spans.buf)) / b.perOp(r) }), "1/op"}

	if spansOut != "" && len(traced) > 0 {
		if err := traced[len(traced)-1].spans.writeFile(spansOut); err != nil {
			return rep, fmt.Errorf("writing spans: %w", err)
		}
	}
	fmt.Printf("%s seed %d: %d untraced, %d traced, %d x-kernel rounds, 1 probe round\n",
		b.w.name, b.in.seed, len(plain), len(traced), len(xk))
	printMetrics(m)
	return rep, nil
}
