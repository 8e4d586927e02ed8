package tcp_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/arp"
	"repro/internal/basis"
	"repro/internal/ethernet"
	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/wire"
)

// tcpHost is one simulated machine running the full standard stack.
type tcpHost struct {
	TCP  *tcp.TCP
	IP   *ip.IP
	Eth  *ethernet.Ethernet
	Port *wire.Port
	A    ip.Addr
}

// buildPair assembles two hosts on a segment. ARP entries are
// pre-populated so tests exercise TCP, not resolution.
func buildPair(s *sim.Scheduler, seg *wire.Segment, cfg tcp.Config) (a, b tcpHost) {
	mk := func(n byte) tcpHost {
		addr := ip.HostAddr(n)
		port := seg.NewPort(addr.String(), nil)
		eth := ethernet.New(port, ethernet.HostAddr(n), ethernet.Config{})
		res := arp.New(s, eth, addr, arp.Config{})
		res.AddStatic(ip.HostAddr(1), ethernet.HostAddr(1))
		res.AddStatic(ip.HostAddr(2), ethernet.HostAddr(2))
		ipl := ip.New(s, eth, res, ip.Config{Local: addr})
		return tcpHost{TCP: tcp.New(s, ipl.Network(ip.ProtoTCP), cfg), IP: ipl, Eth: eth, Port: port, A: addr}
	}
	return mk(1), mk(2)
}

// runPair is the standard two-host test harness.
func runPair(t *testing.T, wcfg wire.Config, cfg tcp.Config, body func(s *sim.Scheduler, a, b tcpHost)) {
	t.Helper()
	s := sim.New(sim.Config{})
	s.Run(func() {
		seg := wire.NewSegment(s, wcfg, nil)
		a, b := buildPair(s, seg, cfg)
		body(s, a, b)
	})
}

// collector accumulates received data and close events.
type collector struct {
	buf        bytes.Buffer
	peerClosed bool
	errs       []error
}

func (r *collector) handler() tcp.Handler {
	return tcp.Handler{
		Data:       func(c *tcp.Conn, data []byte) { r.buf.Write(data) },
		PeerClosed: func(c *tcp.Conn) { r.peerClosed = true },
		Error:      func(c *tcp.Conn, err error) { r.errs = append(r.errs, err) },
	}
}

func TestHandshakeTransferClose(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		var rc collector
		var server *tcp.Conn
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			server = c
			return rc.handler()
		})
		conn, err := a.TCP.Open(b.A, 80, tcp.Handler{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if conn.State() != tcp.StateEstab {
			t.Fatalf("client state %v", conn.State())
		}
		msg := []byte("hello from the Fox Net reproduction")
		if err := conn.Write(msg); err != nil {
			t.Fatalf("Write: %v", err)
		}
		s.Sleep(time.Second)
		if server == nil || server.State() != tcp.StateEstab {
			t.Fatalf("server not established")
		}
		if !bytes.Equal(rc.buf.Bytes(), msg) {
			t.Fatalf("server received %q", rc.buf.Bytes())
		}
		if err := conn.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		s.Sleep(time.Second)
		if !rc.peerClosed {
			t.Fatal("server never saw the FIN")
		}
		if server.State() != tcp.StateCloseWait {
			t.Fatalf("server state %v, want Close_Wait", server.State())
		}
		if err := server.Close(); err != nil {
			t.Fatalf("server Close: %v", err)
		}
		s.Sleep(time.Second)
		if got := conn.State(); got != tcp.StateTimeWait {
			t.Fatalf("client state %v, want Time_Wait", got)
		}
		if got := server.State(); got != tcp.StateClosed {
			t.Fatalf("server state %v, want Closed", got)
		}
	})
}

func TestBulkTransfer(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		var rc collector
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return rc.handler() })
		conn, err := a.TCP.Open(b.A, 80, tcp.Handler{})
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 200_000)
		r := basis.NewRand(1)
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		done := false
		s.Fork("sender", func() {
			if err := conn.Write(data); err != nil {
				t.Errorf("Write: %v", err)
			}
			done = true
		})
		s.Sleep(10 * time.Minute)
		if !done {
			t.Fatal("Write never completed")
		}
		if rc.buf.Len() != len(data) {
			t.Fatalf("received %d of %d bytes", rc.buf.Len(), len(data))
		}
		if !bytes.Equal(rc.buf.Bytes(), data) {
			t.Fatal("data corrupted in transit")
		}
		if a.TCP.Stats().Retransmits != 0 {
			t.Fatalf("retransmits on a clean wire: %d", a.TCP.Stats().Retransmits)
		}
	})
}

func TestBulkTransferOverLossyWire(t *testing.T) {
	runPair(t, wire.Config{Loss: 0.05, Seed: 42}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		var rc collector
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return rc.handler() })
		conn, err := a.TCP.Open(b.A, 80, tcp.Handler{})
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 100_000)
		r := basis.NewRand(2)
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		s.Fork("sender", func() {
			conn.Write(data)
			conn.Close()
		})
		s.Sleep(30 * time.Minute)
		if !bytes.Equal(rc.buf.Bytes(), data) {
			t.Fatalf("received %d of %d bytes intact=%v", rc.buf.Len(), len(data), bytes.Equal(rc.buf.Bytes(), data))
		}
		if a.TCP.Stats().Retransmits == 0 {
			t.Fatal("no retransmits over a 5% lossy wire?")
		}
		if !rc.peerClosed {
			t.Fatal("FIN did not survive the lossy wire")
		}
	})
}

func TestBulkTransferWithReordering(t *testing.T) {
	runPair(t, wire.Config{Jitter: 0.2, JitterMax: 3 * time.Millisecond, Seed: 11}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		var rc collector
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return rc.handler() })
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{})
		data := make([]byte, 80_000)
		r := basis.NewRand(3)
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		s.Fork("sender", func() { conn.Write(data) })
		s.Sleep(10 * time.Minute)
		if !bytes.Equal(rc.buf.Bytes(), data) {
			t.Fatalf("reordered delivery corrupted data (%d of %d bytes)", rc.buf.Len(), len(data))
		}
	})
}

func TestBidirectionalTransfer(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		var fromA, fromB bytes.Buffer
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			return tcp.Handler{Data: func(c *tcp.Conn, d []byte) {
				fromA.Write(d)
				c.Write(bytes.ToUpper(d)) // echo transformed
			}}
		})
		conn, err := a.TCP.Open(b.A, 80, tcp.Handler{
			Data: func(c *tcp.Conn, d []byte) { fromB.Write(d) },
		})
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte("abcdef"))
		s.Sleep(2 * time.Second)
		if fromA.String() != "abcdef" {
			t.Fatalf("server got %q", fromA.String())
		}
		if fromB.String() != "ABCDEF" {
			t.Fatalf("client got %q", fromB.String())
		}
	})
}

func TestConnectionRefused(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		_, err := a.TCP.Open(b.A, 81, tcp.Handler{}) // nobody listens on 81
		if err != tcp.ErrRefused {
			t.Fatalf("err = %v, want ErrRefused", err)
		}
	})
}

func TestOpenTimeoutWhenPeerSilent(t *testing.T) {
	runPair(t, wire.Config{Loss: 1}, tcp.Config{UserTimeout: 5 * time.Second}, func(s *sim.Scheduler, a, b tcpHost) {
		start := s.Now()
		_, err := a.TCP.Open(b.A, 80, tcp.Handler{})
		if err != tcp.ErrTimeout {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if waited := time.Duration(s.Now() - start); waited < 5*time.Second || waited > 30*time.Second {
			t.Fatalf("gave up after %v", waited)
		}
	})
}

func TestAbortSendsRST(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		var rc collector
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return rc.handler() })
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{})
		conn.Abort()
		s.Sleep(time.Second)
		if len(rc.errs) != 1 || rc.errs[0] != tcp.ErrReset {
			t.Fatalf("server errors = %v, want [ErrReset]", rc.errs)
		}
		if a.TCP.Stats().RSTSent == 0 {
			t.Fatal("no RST sent")
		}
	})
}

func TestSimultaneousClose(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		var server *tcp.Conn
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			server = c
			return tcp.Handler{}
		})
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{})
		s.Sleep(100 * time.Millisecond)
		// Close both ends in the same instant: the FINs cross.
		closed := 0
		s.Fork("closeA", func() { conn.Close(); closed++ })
		s.Fork("closeB", func() { server.Close(); closed++ })
		s.Sleep(10 * time.Second)
		if closed != 2 {
			t.Fatalf("only %d closes completed", closed)
		}
		sa, sb := conn.State(), server.State()
		okState := func(st tcp.State) bool { return st == tcp.StateTimeWait || st == tcp.StateClosed }
		if !okState(sa) || !okState(sb) {
			t.Fatalf("states after simultaneous close: %v / %v", sa, sb)
		}
	})
}

func TestHalfCloseServerKeepsSending(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		var server *tcp.Conn
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			server = c
			return tcp.Handler{}
		})
		var got bytes.Buffer
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{
			Data: func(c *tcp.Conn, d []byte) { got.Write(d) },
		})
		conn.Close() // we are done sending; the server is not
		s.Sleep(time.Second)
		if server.State() != tcp.StateCloseWait {
			t.Fatalf("server state %v", server.State())
		}
		if err := server.Write([]byte("late data flows fine")); err != nil {
			t.Fatalf("server Write after half-close: %v", err)
		}
		s.Sleep(time.Second)
		if got.String() != "late data flows fine" {
			t.Fatalf("client got %q", got.String())
		}
		server.Close()
		s.Sleep(time.Second)
		if server.State() != tcp.StateClosed {
			t.Fatalf("server final state %v", server.State())
		}
	})
}

func TestSimultaneousOpen(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		// Both ends actively open to each other's fixed ports; the SYNs
		// cross on the wire.
		var ca, cb *tcp.Conn
		var ea, eb error
		s.Fork("openA", func() { ca, ea = a.TCP.OpenFrom(b.A, 7001, 7002, tcp.Handler{}) })
		s.Fork("openB", func() { cb, eb = b.TCP.OpenFrom(a.A, 7002, 7001, tcp.Handler{}) })
		s.Sleep(30 * time.Second)
		if ea != nil || eb != nil {
			t.Fatalf("open errors: %v / %v", ea, eb)
		}
		if ca.State() != tcp.StateEstab || cb.State() != tcp.StateEstab {
			t.Fatalf("states %v / %v", ca.State(), cb.State())
		}
		// And data flows.
		var got bytes.Buffer
		cb.SetHandler(tcp.Handler{Data: func(c *tcp.Conn, d []byte) { got.Write(d) }})
		ca.Write([]byte("crossed syns"))
		s.Sleep(time.Second)
		if got.String() != "crossed syns" {
			t.Fatalf("got %q", got.String())
		}
	})
}

func TestUnknownSegmentGetsRST(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		// A SYN to a port with no listener must be answered with RST
		// when abort_unknown_connections is true (the default here).
		_, err := a.TCP.Open(b.A, 9999, tcp.Handler{})
		if err != tcp.ErrRefused {
			t.Fatalf("err = %v", err)
		}
		if b.TCP.Stats().RSTSent == 0 {
			t.Fatal("no RST from the closed port")
		}
	})
}

// TestListenerStrayAckRSTCounted: a bare ACK to a listening port is
// answered with a reset from the Listen state (RFC 793 p. 65), sent
// outside any connection's sequence machinery. Stats and the RFC 2012
// group must agree on it: RSTSent reads the one OutRsts counter.
func TestListenerStrayAckRSTCounted(t *testing.T) {
	mib := new(stats.TCPMIB)
	s := sim.New(sim.Config{})
	s.Run(func() {
		seg := wire.NewSegment(s, wire.Config{}, nil)
		a, b := buildRecordedPair(s, seg, tcp.Config{}, tcp.Config{Metrics: mib})
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return tcp.Handler{} })
		adv := adversary.New(s, a.IP.Network(ip.ProtoTCP), 1)
		adv.Send(b.A, adversary.Seg{SrcPort: 4000, DstPort: 80, Seq: 1000, Ack: 5000, Flags: adversary.ACK, Wnd: 4096})
		s.Sleep(time.Second)
		if adv.Stats.Received != 1 {
			t.Fatalf("attacker received %d segments, want the one RST", adv.Stats.Received)
		}
		if got, mibRsts := b.TCP.Stats().RSTSent, mib.OutRsts.Load(); got != 1 || mibRsts != 1 {
			t.Fatalf("Stats().RSTSent = %d, MIB OutRsts = %d; want 1 and 1", got, mibRsts)
		}
	})
}

func TestAbortUnknownConnectionsOffStaysSilent(t *testing.T) {
	cfg := tcp.Config{AbortUnknownConnections: tcp.Disable, UserTimeout: 4 * time.Second}
	runPair(t, wire.Config{}, cfg, func(s *sim.Scheduler, a, b tcpHost) {
		// The paper sets this false to coexist with a host OS's own
		// connections: segments for unknown connections are ignored, so
		// the open times out rather than being refused.
		_, err := a.TCP.Open(b.A, 9999, tcp.Handler{})
		if err != tcp.ErrTimeout {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if b.TCP.Stats().RSTSent != 0 {
			t.Fatal("RST sent despite abort_unknown_connections=false")
		}
	})
}

func TestManyConnectionsInterleaved(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		const n = 8
		bufs := make([]bytes.Buffer, n)
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			return tcp.Handler{Data: func(c *tcp.Conn, d []byte) {
				bufs[d[0]].Write(d)
			}}
		})
		conns := make([]*tcp.Conn, n)
		for i := 0; i < n; i++ {
			conn, err := a.TCP.Open(b.A, 80, tcp.Handler{})
			if err != nil {
				t.Fatalf("open %d: %v", i, err)
			}
			conns[i] = conn
		}
		for round := 0; round < 10; round++ {
			for i, conn := range conns {
				msg := bytes.Repeat([]byte{byte(i)}, 100)
				conn.Write(msg)
			}
		}
		s.Sleep(time.Minute)
		for i := range bufs {
			if bufs[i].Len() != 1000 {
				t.Fatalf("conn %d delivered %d bytes, want 1000", i, bufs[i].Len())
			}
		}
	})
}

func TestFastPathTakesOverBulk(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		var rc collector
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return rc.handler() })
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{})
		data := make([]byte, 100_000)
		s.Fork("sender", func() { conn.Write(data) })
		s.Sleep(5 * time.Minute)
		if rc.buf.Len() != len(data) {
			t.Fatalf("received %d", rc.buf.Len())
		}
		bst, ast := b.TCP.Stats(), a.TCP.Stats()
		if bst.FastPathIn == 0 {
			t.Fatal("receiver never used the data fast path")
		}
		if ast.FastPathIn == 0 {
			t.Fatal("sender never used the pure-ACK fast path")
		}
		if bst.FastPathIn < bst.SlowPathIn {
			t.Fatalf("fast path minority: %d fast vs %d slow", bst.FastPathIn, bst.SlowPathIn)
		}
	})
}

func TestFastPathOffStillCorrect(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{FastPath: tcp.Disable}, func(s *sim.Scheduler, a, b tcpHost) {
		var rc collector
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return rc.handler() })
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{})
		data := make([]byte, 50_000)
		s.Fork("sender", func() { conn.Write(data) })
		s.Sleep(5 * time.Minute)
		if rc.buf.Len() != len(data) {
			t.Fatalf("received %d", rc.buf.Len())
		}
		if b.TCP.Stats().FastPathIn != 0 {
			t.Fatal("fast path used while disabled")
		}
	})
}

func TestDirectDispatchAblationCorrect(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{DirectDispatch: true}, func(s *sim.Scheduler, a, b tcpHost) {
		var rc collector
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return rc.handler() })
		conn, err := a.TCP.Open(b.A, 80, tcp.Handler{})
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 50_000)
		s.Fork("sender", func() { conn.Write(data); conn.Close() })
		s.Sleep(5 * time.Minute)
		if rc.buf.Len() != len(data) {
			t.Fatalf("received %d", rc.buf.Len())
		}
		if !rc.peerClosed {
			t.Fatal("close lost in direct-dispatch mode")
		}
	})
}

func TestChecksumsOffStillInteroperates(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{ComputeChecksums: tcp.Disable}, func(s *sim.Scheduler, a, b tcpHost) {
		var rc collector
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return rc.handler() })
		conn, err := a.TCP.Open(b.A, 80, tcp.Handler{})
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte("trusting the ethernet CRC"))
		s.Sleep(time.Second)
		if rc.buf.String() != "trusting the ethernet CRC" {
			t.Fatalf("got %q", rc.buf.String())
		}
	})
}

func TestZeroWindowProbeRecovers(t *testing.T) {
	// A tiny receive window forces the sender to stop; the persist
	// machinery must keep the connection alive and finish the transfer.
	runPair(t, wire.Config{}, tcp.Config{InitialWindow: 512}, func(s *sim.Scheduler, a, b tcpHost) {
		var rc collector
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return rc.handler() })
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{})
		data := make([]byte, 8_000)
		s.Fork("sender", func() { conn.Write(data) })
		s.Sleep(5 * time.Minute)
		if rc.buf.Len() != len(data) {
			t.Fatalf("received %d of %d", rc.buf.Len(), len(data))
		}
	})
}

func TestTraceOutputMentionsSegments(t *testing.T) {
	s := sim.New(sim.Config{})
	var traced bytes.Buffer
	s.Run(func() {
		seg := wire.NewSegment(s, wire.Config{}, nil)
		tr := basis.NewTracer("tcp", &traced, true)
		cfg := tcp.Config{Trace: tr}
		a, b := buildPair(s, seg, cfg)
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return tcp.Handler{} })
		conn, err := a.TCP.Open(b.A, 80, tcp.Handler{})
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte("x"))
		s.Sleep(time.Second)
	})
	out := traced.String()
	for _, want := range []string{"[S]", "[S.]", "Process_Data", "established"} {
		if !bytes.Contains(traced.Bytes(), []byte(want)) {
			t.Fatalf("trace missing %q:\n%s", want, out[:min(len(out), 2000)])
		}
	}
}
