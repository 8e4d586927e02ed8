package experiments

// The telemetry-overhead experiment, the observation plane's analogue of
// flight.go: its hooks also sit on the executor's hottest paths (every
// enqueue, every drain, every RTT sample, every user Read/Write), so
// their cost is measured the same way. The same deterministic bulk
// transfer runs unobserved and with both hosts telemetered; CPU
// charging is off, so the virtual result is wire-limited and must be
// bit-identical either way (telemetry is pure observation), and the
// best-of-trials real time isolates what the histograms, profiler, and
// sampler cost the host CPU.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// TelemetryOverheadResult reports what the observation plane costs the
// paper's bulk transfer.
type TelemetryOverheadResult struct {
	Off, On         TransferResult // virtual results; identical when telemetry is pure observation
	OffWall, OnWall time.Duration  // best-of-Trials real time per run
	Trials          int
	Actions         uint64  // executor actions profiled per run (both hosts)
	Samples         uint64  // time-series points recorded per run (both hosts)
	OverheadPct     float64 // wall clock, (on-off)/off
	Planes          [2]*telemetry.Telemetry
	Text            string
}

// TelemetryOverhead measures the plane's cost on the bulk transfer:
// Trials runs unobserved, Trials with both hosts telemetered, best real
// time of each. With telemetry off the executor's door tests one flag
// and every other hook site one nil check, so Off also stands in for the
// pre-telemetry stack.
func TelemetryOverhead(o Options) TelemetryOverheadResult {
	o.fill()
	o.NoCharge = true // wire-limited: virtual results must match off/on
	const trials = 5
	res := TelemetryOverheadResult{Trials: trials}

	run := func(on bool) (TransferResult, time.Duration) {
		var best time.Duration
		var tr TransferResult
		for i := 0; i < trials; i++ {
			opt := o
			var planes [2]*telemetry.Telemetry
			if on {
				planes[0] = telemetry.New(telemetry.Options{})
				planes[1] = telemetry.New(telemetry.Options{})
				opt.Telemetry = []*telemetry.Telemetry{planes[0], planes[1]}
			}
			start := time.Now()
			tr = Throughput(Structured, opt)
			wall := time.Since(start)
			if i == 0 || wall < best {
				best = wall
			}
			if on {
				res.Planes = planes
				res.Actions, res.Samples = 0, 0
				for _, tl := range planes {
					for k := telemetry.ActKind(0); k < telemetry.NumActKinds; k++ {
						res.Actions += tl.Prof.Count(k)
					}
					for _, sr := range tl.Series() {
						res.Samples += sr.Total()
					}
				}
			}
		}
		return tr, best
	}

	res.Off, res.OffWall = run(false)
	res.On, res.OnWall = run(true)
	if res.OffWall > 0 {
		res.OverheadPct = 100 * float64(res.OnWall-res.OffWall) / float64(res.OffWall)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Telemetry overhead (bulk transfer, %d bytes, wire-limited, best of %d)\n",
		o.Bytes, trials)
	fmt.Fprintf(&b, "  %-13s wall %10v   virtual %v, %.2f Mb/s\n",
		"telemetry off", res.OffWall.Round(time.Microsecond),
		time.Duration(res.Off.Elapsed), res.Off.ThroughputMbps)
	fmt.Fprintf(&b, "  %-13s wall %10v   %d actions profiled, %d series points (both hosts)\n",
		"telemetry on", res.OnWall.Round(time.Microsecond), res.Actions, res.Samples)
	if res.On.Elapsed == res.Off.Elapsed && res.On.SegsSent == res.Off.SegsSent {
		b.WriteString("  virtual results identical off/on: telemetry is pure observation\n")
	} else {
		fmt.Fprintf(&b, "  WARNING: virtual results differ: off %v/%d, on %v/%d segs\n",
			time.Duration(res.Off.Elapsed), res.Off.SegsSent,
			time.Duration(res.On.Elapsed), res.On.SegsSent)
	}
	fmt.Fprintf(&b, "  wall-clock cost of telemetry: %+.1f%%; disabled: one flag test per door crossing\n",
		res.OverheadPct)
	if tl := res.Planes[0]; tl != nil {
		a := tl.Action.Snapshot()
		r := tl.RTT.Snapshot()
		fmt.Fprintf(&b, "  sender action latency p50/p99/max: %d/%d/%d ns; rtt p50: %d ns (%d samples)\n",
			a.P50, a.P99, a.Max, r.P50, r.Count)
	}
	res.Text = b.String()
	return res
}

// SeriesJSON is one connection's time-series ring in foxbench -json
// output: the data behind a cwnd trace or fairness plot.
type SeriesJSON struct {
	Conn   string            `json:"conn"`
	Total  uint64            `json:"total_points"`
	Points []telemetry.Point `json:"points"`
}

// PlaneJSON is one host's full telemetry plane: the four hot-path
// latency histograms, the executor profile, and every connection's
// sampled series.
type PlaneJSON struct {
	Host    string                 `json:"host"`
	Action  telemetry.HistSnapshot `json:"action_latency_ns"`
	RTT     telemetry.HistSnapshot `json:"rtt_sample_ns"`
	Read    telemetry.HistSnapshot `json:"read_latency_ns"`
	Write   telemetry.HistSnapshot `json:"write_latency_ns"`
	Profile telemetry.ProfReport   `json:"profile"`
	Dropped uint64                 `json:"dropped_conns,omitempty"`
	Series  []SeriesJSON           `json:"series,omitempty"`
}

func planeJSON(host string, tl *telemetry.Telemetry) *PlaneJSON {
	if tl == nil {
		return nil
	}
	p := &PlaneJSON{
		Host:    host,
		Action:  tl.Action.Snapshot(),
		RTT:     tl.RTT.Snapshot(),
		Read:    tl.Read.Snapshot(),
		Write:   tl.Write.Snapshot(),
		Profile: tl.Prof.Report(),
		Dropped: tl.Dropped(),
	}
	for _, sr := range tl.Series() {
		p.Series = append(p.Series, SeriesJSON{
			Conn: sr.Name(), Total: sr.Total(), Points: sr.Points(),
		})
	}
	return p
}

// TelemetryJSON is the plane snapshot attached to a structured run:
// sender and receiver planes plus the sampling cadence that produced
// the series.
type TelemetryJSON struct {
	SampleEveryNS int64      `json:"sample_every_ns"`
	Sender        *PlaneJSON `json:"sender,omitempty"`
	Receiver      *PlaneJSON `json:"receiver,omitempty"`
}

func telemetryJSON(planes [2]*telemetry.Telemetry) *TelemetryJSON {
	if planes[0] == nil && planes[1] == nil {
		return nil
	}
	t := &TelemetryJSON{
		Sender:   planeJSON("host1", planes[0]),
		Receiver: planeJSON("host2", planes[1]),
	}
	for _, tl := range planes {
		if tl != nil {
			t.SampleEveryNS = tl.SampleEveryNS()
			break
		}
	}
	return t
}

// TelemetryOverheadJSON is the telemetry-overhead measurement in
// foxbench -json output.
type TelemetryOverheadJSON struct {
	Trials          int          `json:"trials"`
	Actions         uint64       `json:"actions_per_run"`
	Samples         uint64       `json:"series_points_per_run"`
	OffWallNS       int64        `json:"off_wall_ns"`
	OnWallNS        int64        `json:"on_wall_ns"`
	WallOverheadPct float64      `json:"wall_overhead_pct"`
	Off             TransferJSON `json:"off"`
	On              TransferJSON `json:"on"`
}

// TelemetryReport runs the telemetry-overhead experiment and returns
// both the JSON report — overhead figures plus the observed planes —
// and the formatted text.
func TelemetryReport(o Options) (Report, string) {
	r := TelemetryOverhead(o)
	return Report{
		TelemetryOverhead: &TelemetryOverheadJSON{
			Trials:          r.Trials,
			Actions:         r.Actions,
			Samples:         r.Samples,
			OffWallNS:       r.OffWall.Nanoseconds(),
			OnWallNS:        r.OnWall.Nanoseconds(),
			WallOverheadPct: r.OverheadPct,
			Off:             transferJSON(r.Off),
			On:              transferJSON(r.On),
		},
		Telemetry: telemetryJSON(r.Planes),
	}, r.Text
}
