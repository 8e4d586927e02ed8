package experiments

// The flight-recorder overhead experiment. The recorder's hooks sit on
// the hottest paths in the stack — every enqueued tcp_action and every
// drained one — so their cost is measured, not asserted. The same
// deterministic bulk transfer runs with the recorder absent and with
// both hosts journaling to counting writers; CPU charging is off, so
// the virtual result is wire-limited and must be bit-identical either
// way (recording is pure observation), and the best-of-trials real time
// isolates what the recorder itself costs the host CPU.

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/flight/seal"
	"repro/internal/stats"
)

// countingWriter discards journal bytes but keeps the totals, so the
// overhead report can say how much journal a run produces. Records are
// counted by newline: the framing ends every record with '\n' and JSON
// bodies escape all control characters.
type countingWriter struct {
	bytes   int64
	records int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	for _, b := range p {
		if b == '\n' {
			w.records++
		}
	}
	return len(p), nil
}

// countSink adapts a countingWriter to the seal batcher's segment
// interface, so the sealed arm measures pure CPU cost (hashing,
// batching, framing) with no filesystem in the loop.
type countSink struct {
	cw   *countingWriter
	segs int64
}

func (s *countSink) Next(seg int) (io.WriteCloser, error) {
	s.segs++
	return nopSegment{s.cw}, nil
}

type nopSegment struct{ io.Writer }

func (nopSegment) Close() error { return nil }

// FlightOverheadResult reports what the flight recorder costs the
// paper's bulk transfer, and what Merkle-sealing the journal adds on
// top of plain recording.
type FlightOverheadResult struct {
	Off, On, Sealed TransferResult // virtual results; identical when recording is pure observation
	OffWall, OnWall time.Duration  // best-of-Trials real time per run
	SealedWall      time.Duration
	Trials          int
	JournalRecords  int64 // per run, both hosts together
	JournalBytes    int64
	SealedBytes     int64 // sealed journal incl. seal records
	SealedBatches   int64
	SealedSegments  int64
	OverheadPct     float64 // wall clock, (on-off)/off
	SealedPct       float64 // wall clock, (sealed-off)/off
	Text            string
}

// FlightOverhead measures the recorder's cost on the bulk transfer:
// Trials runs with the recorder off, Trials with both hosts recording,
// best real time of each. With the recorder off the executor's door
// tests one flag and every other hook site one nil check, so Off also
// stands in for the pre-recorder stack when comparing against older
// baselines.
func FlightOverhead(o Options) FlightOverheadResult {
	o.fill()
	o.NoCharge = true // wire-limited: virtual results must match off/on
	const trials = 5
	res := FlightOverheadResult{Trials: trials}

	const (
		armOff = iota
		armOn
		armSealed
	)
	run := func(arm int) (TransferResult, time.Duration, int64, int64) {
		var best time.Duration
		var tr TransferResult
		var jBytes, jRecs int64
		for i := 0; i < trials; i++ {
			opt := o
			var cw [2]countingWriter
			var sinks [2]countSink
			var sw [2]*seal.Writer
			switch arm {
			case armOn:
				opt.FlightSinks = append(opt.FlightSinks, &cw[0], &cw[1])
			case armSealed:
				for j := range sw {
					sinks[j] = countSink{cw: &cw[j]}
					sw[j] = seal.NewWriter(&sinks[j], seal.Options{
						SegmentBytes: 1 << 20,
						MIB:          new(stats.SealMIB),
					})
					opt.FlightSinks = append(opt.FlightSinks, sw[j])
				}
			}
			start := time.Now()
			tr = Throughput(Structured, opt)
			if arm == armSealed {
				// Sealing the final partial batch is part of a run's cost.
				sw[0].Sync()
				sw[1].Sync()
			}
			wall := time.Since(start)
			if i == 0 || wall < best {
				best = wall
			}
			jBytes = cw[0].bytes + cw[1].bytes
			jRecs = cw[0].records + cw[1].records
			if arm == armSealed {
				res.SealedBatches = int64(sw[0].Batches() + sw[1].Batches())
				res.SealedSegments = sinks[0].segs + sinks[1].segs
			}
		}
		return tr, best, jBytes, jRecs
	}

	res.Off, res.OffWall, _, _ = run(armOff)
	res.On, res.OnWall, res.JournalBytes, res.JournalRecords = run(armOn)
	res.Sealed, res.SealedWall, res.SealedBytes, _ = run(armSealed)
	if res.OffWall > 0 {
		res.OverheadPct = 100 * float64(res.OnWall-res.OffWall) / float64(res.OffWall)
		res.SealedPct = 100 * float64(res.SealedWall-res.OffWall) / float64(res.OffWall)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Flight recorder overhead (bulk transfer, %d bytes, wire-limited, best of %d)\n",
		o.Bytes, trials)
	fmt.Fprintf(&b, "  %-13s wall %10v   virtual %v, %.2f Mb/s\n",
		"recorder off", res.OffWall.Round(time.Microsecond),
		time.Duration(res.Off.Elapsed), res.Off.ThroughputMbps)
	fmt.Fprintf(&b, "  %-13s wall %10v   journal %d records / %d B per run (both hosts)\n",
		"recorder on", res.OnWall.Round(time.Microsecond),
		res.JournalRecords, res.JournalBytes)
	fmt.Fprintf(&b, "  %-13s wall %10v   journal %d B in %d batches / %d segments, sha256-sealed\n",
		"sealed", res.SealedWall.Round(time.Microsecond),
		res.SealedBytes, res.SealedBatches, res.SealedSegments)
	if res.On.Elapsed == res.Off.Elapsed && res.On.SegsSent == res.Off.SegsSent &&
		res.Sealed.Elapsed == res.Off.Elapsed && res.Sealed.SegsSent == res.Off.SegsSent {
		b.WriteString("  virtual results identical off/on/sealed: recording and sealing are pure observation\n")
	} else {
		fmt.Fprintf(&b, "  WARNING: virtual results differ: off %v/%d, on %v/%d, sealed %v/%d segs\n",
			time.Duration(res.Off.Elapsed), res.Off.SegsSent,
			time.Duration(res.On.Elapsed), res.On.SegsSent,
			time.Duration(res.Sealed.Elapsed), res.Sealed.SegsSent)
	}
	fmt.Fprintf(&b, "  wall-clock cost of recording: %+.1f%%; sealing: %+.1f%%; disabled: one flag test per door crossing\n",
		res.OverheadPct, res.SealedPct)
	res.Text = b.String()
	return res
}

// FlightJSON is the recorder-overhead measurement in foxbench -json
// output.
type FlightJSON struct {
	Trials          int          `json:"trials"`
	JournalRecords  int64        `json:"journal_records_per_run"`
	JournalBytes    int64        `json:"journal_bytes_per_run"`
	OffWallNS       int64        `json:"off_wall_ns"`
	OnWallNS        int64        `json:"on_wall_ns"`
	WallOverheadPct float64      `json:"wall_overhead_pct"`
	SealedWallNS    int64        `json:"sealed_wall_ns,omitempty"`
	SealedPct       float64      `json:"sealed_wall_overhead_pct,omitempty"`
	SealedBytes     int64        `json:"sealed_journal_bytes_per_run,omitempty"`
	SealedBatches   int64        `json:"sealed_batches_per_run,omitempty"`
	SealedSegments  int64        `json:"sealed_segments_per_run,omitempty"`
	Off             TransferJSON `json:"off"`
	On              TransferJSON `json:"on"`
	Sealed          TransferJSON `json:"sealed"`
}

// FlightReport runs the recorder-overhead experiment and returns both
// the JSON report and the formatted text.
func FlightReport(o Options) (Report, string) {
	r := FlightOverhead(o)
	return Report{Flight: &FlightJSON{
		Trials:          r.Trials,
		JournalRecords:  r.JournalRecords,
		JournalBytes:    r.JournalBytes,
		OffWallNS:       r.OffWall.Nanoseconds(),
		OnWallNS:        r.OnWall.Nanoseconds(),
		WallOverheadPct: r.OverheadPct,
		SealedWallNS:    r.SealedWall.Nanoseconds(),
		SealedPct:       r.SealedPct,
		SealedBytes:     r.SealedBytes,
		SealedBatches:   r.SealedBatches,
		SealedSegments:  r.SealedSegments,
		Off:             transferJSON(r.Off),
		On:              transferJSON(r.On),
		Sealed:          transferJSON(r.Sealed),
	}}, r.Text
}
