package tcp_test

// Integration tests for the telemetry plane's central promise: attaching
// it changes nothing the simulation can see. The same lossy transfer
// runs unobserved and telemetered and must finish at the same virtual
// instant having sent the same segments — while the telemetered run's
// histograms, series, and profile actually fill up.

import (
	"bytes"
	"testing"

	"repro/internal/flight"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// telemetryTransfer runs one deterministic transfer (slightly lossy
// wire, so retransmission and RTT paths execute) with the given
// per-host configs (zero = unobserved) and reports when it finished and
// what the sender sent.
func telemetryTransfer(t *testing.T, cfgA, cfgB tcp.Config) (doneAt sim.Time, segs, rexmits uint64) {
	t.Helper()
	const n = 150_000
	s := sim.New(sim.Config{})
	s.Run(func() {
		seg := wire.NewSegment(s, wire.Config{Loss: 0.03, Seed: 9}, nil)
		a, b := buildRecordedPair(s, seg, cfgA, cfgB)
		var server *tcp.Conn
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			server = c
			return tcp.Handler{} // no Data handler: the Read path
		})
		conn, err := a.TCP.Open(b.A, 80, tcp.Handler{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		finished := false
		cond := sim.NewCond(s)
		s.Fork("reader", func() {
			buf := make([]byte, n)
			if _, err := server.ReadFull(buf); err != nil {
				t.Errorf("ReadFull: %v", err)
			}
			finished = true
			cond.Signal()
		})
		conn.Write(make([]byte, n))
		for !finished {
			cond.Wait()
		}
		doneAt = s.Now()
		st := a.TCP.Stats()
		segs, rexmits = st.SegsSent, st.Retransmits
	})
	return doneAt, segs, rexmits
}

func TestTelemetryBitIdentical(t *testing.T) {
	offAt, offSegs, offRex := telemetryTransfer(t, tcp.Config{}, tcp.Config{})
	tl := telemetry.New(telemetry.Options{SampleEveryNS: 100_000})
	cfg := tcp.Config{Telemetry: tl}
	onAt, onSegs, onRex := telemetryTransfer(t, cfg, cfg)

	if onAt != offAt || onSegs != offSegs || onRex != offRex {
		t.Fatalf("telemetered run diverged: off (t=%d segs=%d rex=%d) vs on (t=%d segs=%d rex=%d)",
			offAt, offSegs, offRex, onAt, onSegs, onRex)
	}
	if offRex == 0 {
		t.Fatal("scenario should exercise retransmission (raise loss or bytes)")
	}

	// The run really was observed: every surface is populated.
	if tl.Action.Count() == 0 {
		t.Error("action-latency histogram is empty")
	}
	if tl.RTT.Count() == 0 {
		t.Error("RTT histogram is empty")
	}
	if tl.Read.Count() == 0 {
		t.Error("read-latency histogram is empty")
	}
	if tl.Write.Count() == 0 {
		t.Error("write-latency histogram is empty")
	}
	var actions uint64
	for k := telemetry.ActKind(0); k < telemetry.NumActKinds; k++ {
		actions += tl.Prof.Count(k)
	}
	if actions != tl.Action.Count() {
		t.Errorf("profiler recorded %d actions, histogram %d — every drained action hits both",
			actions, tl.Action.Count())
	}
	series := tl.Series()
	if len(series) != 2 {
		t.Fatalf("got %d series, want 2 (one per connection; both hosts share the plane here)", len(series))
	}
	for _, sr := range series {
		if sr.Total() == 0 {
			t.Errorf("series %s took no samples", sr.Name())
		}
		pts := sr.Points()
		for i := 1; i < len(pts); i++ {
			if pts[i].At < pts[i-1].At {
				t.Fatalf("series %s not time-ordered: %d after %d", sr.Name(), pts[i].At, pts[i-1].At)
			}
		}
	}
	// The sender's series saw a real congestion window.
	var sawCwnd bool
	for _, sr := range series {
		for _, p := range sr.Points() {
			if p.Cwnd > 0 && p.RTO > 0 {
				sawCwnd = true
			}
		}
	}
	if !sawCwnd {
		t.Error("no sampled point carries cwnd and RTO")
	}
}

// TestTelemetryWithFlight attaches both observer planes to the same
// transfer. They share one stamp per to_do entry (observe.go), so this
// is the case that proves the shared stamp serves both: the run stays
// bit-identical to the unobserved one, both journals replay without a
// divergence, and telemetry saw exactly the drains the journals record.
func TestTelemetryWithFlight(t *testing.T) {
	offAt, offSegs, offRex := telemetryTransfer(t, tcp.Config{}, tcp.Config{})
	tl := telemetry.New(telemetry.Options{SampleEveryNS: 100_000})
	ja, jb := &bytes.Buffer{}, &bytes.Buffer{}
	onAt, onSegs, onRex := telemetryTransfer(t,
		tcp.Config{Telemetry: tl, Flight: flight.NewRecorder(ja)},
		tcp.Config{Telemetry: tl, Flight: flight.NewRecorder(jb)})

	if onAt != offAt || onSegs != offSegs || onRex != offRex {
		t.Fatalf("observed run diverged: off (t=%d segs=%d rex=%d) vs on (t=%d segs=%d rex=%d)",
			offAt, offSegs, offRex, onAt, onSegs, onRex)
	}
	var begs uint64
	for i, j := range []*bytes.Buffer{ja, jb} {
		side := [...]string{"client", "server"}[i]
		recs, err := flight.ReadAll(bytes.NewReader(j.Bytes()))
		if err != nil {
			t.Fatalf("%s journal: %v", side, err)
		}
		for _, r := range recs {
			if r.Kind == flight.KindBeg {
				begs++
			}
		}
		replaySide(t, side, j)
	}
	if begs == 0 {
		t.Fatal("journals record no drained actions")
	}
	if got := tl.Action.Count(); got != begs {
		t.Fatalf("telemetry observed %d drains, journals record %d beg records", got, begs)
	}
}

// TestTelemetryDirectDispatch: with the to_do queue bypassed there is no
// door to observe, so New must drop the plane entirely.
func TestTelemetryDirectDispatch(t *testing.T) {
	tl := telemetry.New(telemetry.Options{})
	runPair(t, wire.Config{}, tcp.Config{DirectDispatch: true, Telemetry: tl},
		func(s *sim.Scheduler, a, b tcpHost) {
			var rc collector
			b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return rc.handler() })
			conn, err := a.TCP.Open(b.A, 80, tcp.Handler{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			conn.Write(make([]byte, 5000))
			s.Sleep(2_000_000_000)
			if rc.buf.Len() != 5000 {
				t.Fatalf("received %d bytes, want 5000", rc.buf.Len())
			}
		})
	if tl.Action.Count() != 0 || len(tl.Series()) != 0 {
		t.Fatalf("DirectDispatch run touched the plane: %d actions, %d series",
			tl.Action.Count(), len(tl.Series()))
	}
}
