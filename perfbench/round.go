package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/foxnet"
	"repro/internal/baseline"
	"repro/internal/sim"
)

// arm is which TCP a round runs: the structured Fox Net TCP or the
// monolithic x-kernel-style baseline (the paper's Table 1 pair).
type arm int

const (
	fox arm = iota
	xkernel
)

func (a arm) String() string { return [...]string{"fox", "xkernel"}[a] }

// mode is how a round is observed.
type mode struct {
	arm arm
	// traced attaches the telemetry and profile planes, a wire tap and
	// the benchmark's spans. Virtual results must not change.
	traced bool
	// probe charges measured CPU to the virtual clock at scale 1, so
	// the profile plane's section times and the telemetry plane's
	// action-wait histogram read real nanoseconds. Charging changes
	// virtual timing, so probe rounds are left out of the fingerprint.
	probe bool
}

// fingerprint is a round's virtual outcome. With CPU charging off it
// depends only on the inputs, so every round of a run must repeat it.
type fingerprint struct {
	VirtNS  int64  `json:"virtual_ns"`
	SegsOut uint64 `json:"segs_out"`
	Retrans uint64 `json:"retransmits"`
	Frames  uint64 `json:"wire_frames"`
	Bytes   int64  `json:"payload_bytes"`
}

// counters is one snapshot of every count a round reads from outside
// the stack. Deltas between the timed phase's two snapshots are the
// round's per-layer work.
type counters struct {
	switches, forks, timerFires uint64
	segsOut, retrans            uint64
	frames, lost                uint64
	allocs, allocBytes, gcs     uint64            // runtime.MemStats Mallocs, TotalAlloc, NumGC
	pauseNS                     uint64            // runtime.MemStats PauseTotalNs
	actions                     map[string]uint64 // telemetry actions and modules: counts
	moduleWall                  map[string]int64  // telemetry modules: wall ns
	profCount                   map[string]uint64 // profile plane: sections per category
	profTime                    map[string]time.Duration
}

// result is what one round measured.
type result struct {
	mode    mode
	setup   time.Duration // scheduler, network, listeners, pre-opened connections
	elapsed time.Duration // timed phase, wall
	cpu     time.Duration // timed phase, process CPU time
	virt    int64         // timed phase, virtual ns
	ops     int           // ops completed and verified
	bytes   int64         // payload bytes verified
	lat     []time.Duration
	virtLat []int64
	host    float64 // host speed measured by hostRef right before the round
	heap    int64   // live heap the round's network holds at the end of the timed phase
	start   counters
	end     counters
	readyHW int
	fp      fingerprint

	// attempted is the round's planned ops; failed is set once the round
	// ends: ops not verified, or more if more faults were seen.
	attempted, failed int
	faults            int
	errs              []string

	actionWaitP50, actionWaitP99 uint64 // probe rounds: virtual = wall ns
	goroutinesPeak               int
	wireBytes                    int64
	spans                        *spans
}

// conn is the part of a connection the workloads use; both TCPs
// provide it.
type conn interface {
	Write(p []byte) error
	Close() error
	// Shutdown sends FIN without waiting for its acknowledgment; it is
	// safe from inside an upcall.
	Shutdown()
}

// upcalls are a connection's user callbacks. data's slice is valid only
// during the call.
type upcalls struct {
	data       func(p []byte)
	peerClosed func()
}

// endpoint is one host's TCP, Fox or baseline.
type endpoint interface {
	listen(port uint16, accept func(c conn) upcalls) error
	open(dst foxnet.Addr, port uint16, u upcalls) (conn, error)
}

type foxEndpoint struct {
	r *round
	h *foxnet.Host
}

func (e foxEndpoint) handler(u upcalls) foxnet.Handler {
	return foxnet.Handler{
		Data: func(_ *foxnet.Conn, p []byte) { u.data(p) },
		PeerClosed: func(*foxnet.Conn) {
			if u.peerClosed != nil {
				u.peerClosed()
			}
		},
		Error: func(c *foxnet.Conn, err error) { e.r.fail("%s: %v", c.Name(), err) },
	}
}

func (e foxEndpoint) listen(port uint16, accept func(c conn) upcalls) error {
	_, err := e.h.TCP.Listen(port, func(c *foxnet.Conn) foxnet.Handler { return e.handler(accept(c)) })
	return err
}

func (e foxEndpoint) open(dst foxnet.Addr, port uint16, u upcalls) (conn, error) {
	c, err := e.h.TCP.Open(dst, port, e.handler(u))
	if err != nil {
		return nil, err
	}
	return c, nil
}

type xkEndpoint struct {
	r *round
	t *baseline.TCP
}

// xkConn gives the baseline a Shutdown: its Close blocks until the FIN
// is acknowledged, so from an upcall it runs on a thread of its own.
type xkConn struct {
	*baseline.Conn
	r *round
}

func (c xkConn) Shutdown() {
	c.r.s.Fork("xk-shutdown", func() {
		if err := c.Close(); err != nil {
			c.r.fail("baseline shutdown: %v", err)
		}
	})
}

func (e xkEndpoint) handler(u upcalls) baseline.Handler {
	return baseline.Handler{
		Data: func(_ *baseline.Conn, p []byte) { u.data(p) },
		PeerClosed: func(*baseline.Conn) {
			if u.peerClosed != nil {
				u.peerClosed()
			}
		},
		Error: func(_ *baseline.Conn, err error) { e.r.fail("baseline: %v", err) },
	}
}

func (e xkEndpoint) listen(port uint16, accept func(c conn) upcalls) error {
	e.t.Listen(port, func(c *baseline.Conn) baseline.Handler {
		return e.handler(accept(xkConn{c, e.r}))
	})
	return nil
}

func (e xkEndpoint) open(dst foxnet.Addr, port uint16, u upcalls) (conn, error) {
	c, err := e.t.Open(dst, port, e.handler(u))
	if err != nil {
		return nil, err
	}
	return xkConn{c, e.r}, nil
}

// round is one fresh network running one workload's fixed work.
type round struct {
	w   *workload
	in  *inputs
	sz  sizes
	m   mode
	s   *foxnet.Scheduler
	net *foxnet.Network
	ep  []endpoint
	tel *foxnet.Telemetry
	res *result
	sp  *spans

	workers  int // timed-phase workers still running
	doneC    *sim.Cond
	timedOut bool
	// lastTap[i] is the wall time the wire tap saw the latest
	// data-bearing frame addressed to host i, 0 once a Data upcall on
	// host i has consumed it.
	lastTap []int64
	cleanup []func() // untimed teardown steps, run after the timed phase

	flows      []*flow   // bulk, lossy
	blockWall  time.Time // bulk, lossy: when the receiver completed the last block
	blockVirt  int64
	rpcClients []*rpcClient // rpc
	opSpans    []int32      // rpc, churn: op id → its span, for server-side spans
}

// fail records an operation failure. It never stops the round.
func (r *round) fail(format string, args ...any) {
	r.res.faults++
	if len(r.res.errs) < 8 {
		r.res.errs = append(r.res.errs, fmt.Sprintf(format, args...))
	}
}

// opDone records one finished op: its wall and virtual latency, if every
// byte it delivered was verified.
func (r *round) opDone(wall time.Duration, virt int64, ok bool) {
	if !ok {
		r.fail("op verification failed")
		return
	}
	r.res.ops++
	r.res.lat = append(r.res.lat, wall)
	r.res.virtLat = append(r.res.virtLat, virt)
	if r.m.traced {
		if g := runtime.NumGoroutine(); g > r.res.goroutinesPeak {
			r.res.goroutinesPeak = g
		}
	}
}

// fork starts one timed-phase worker.
func (r *round) fork(name string, fn func()) {
	r.workers++
	r.s.Fork(name, func() {
		fn()
		r.workers--
		r.doneC.Broadcast()
	})
}

// vnow is the virtual clock in nanoseconds.
func (r *round) vnow() int64 { return int64(r.s.Now()) }

// virtualLimit bounds a round's timed phase in virtual time: an op that
// has not completed by then never will, and is counted as failed.
const virtualLimit = 30 * time.Minute

// cpuTime is the CPU time the process has used, user and system, on
// all its threads. Unlike the wall clock it excludes time the host's
// hypervisor gave to other machines, so it measures what the program
// costs even on a shared machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// snapshot reads every counter the round reports on.
func (r *round) snapshot() counters {
	var c counters
	c.switches, c.forks, c.timerFires = r.s.Switches(), r.s.Forks(), r.s.TimerFires()
	for i, h := range r.net.Hosts {
		if r.m.arm == fox {
			st := h.TCP.Stats()
			c.segsOut += st.SegsSent
			c.retrans += st.Retransmits
		} else {
			st := r.ep[i].(xkEndpoint).t.Stats()
			c.segsOut += st.SegsSent
			c.retrans += st.Retransmits
		}
	}
	ws := r.net.Segment.Stats()
	c.frames, c.lost = ws.Sent, ws.Lost
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.allocs, c.allocBytes, c.gcs, c.pauseNS = ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs
	if r.tel != nil {
		c.actions = map[string]uint64{}
		c.moduleWall = map[string]int64{}
		rep := r.tel.Prof.Report()
		for _, a := range rep.Actions {
			c.actions[a.Name] = a.Count
		}
		for _, m := range rep.Modules {
			c.moduleWall[m.Name] = m.WallNS
		}
	}
	if r.net.Hosts[0].Prof != nil {
		c.profCount = map[string]uint64{}
		c.profTime = map[string]time.Duration{}
		for _, h := range r.net.Hosts {
			for _, row := range h.Prof.Report().Rows {
				c.profCount[row.Label] += row.Count
				c.profTime[row.Label] += row.Time
			}
		}
	}
	return c
}

// runRound builds a fresh scheduler and network, runs w's fixed work
// once, and reports what it measured. A panic inside the simulation —
// a sim deadlock, say — is recovered and counted as a failure.
func runRound(w *workload, in *inputs, sz sizes, m mode) (res *result) {
	res = &result{mode: m, attempted: w.ops(sz)}
	res.lat = make([]time.Duration, 0, w.ops(sz))
	res.virtLat = make([]int64, 0, w.ops(sz))
	if m.traced {
		// Room for a few spans per op plus one deliver span per data
		// segment of the stream workloads.
		res.spans = newSpans(16*w.ops(sz) + (sz.bulkBytes+2*sz.lossyBytes)/256 + 64)
	}
	heap0 := liveHeap()
	wallStart := time.Now()
	s := foxnet.NewScheduler(foxnet.SchedulerConfig{ChargeCPU: m.probe, CPUScale: 1})
	r := &round{w: w, in: in, sz: sz, m: m, s: s, res: res, sp: res.spans}
	defer func() {
		if p := recover(); p != nil {
			r.fail("simulation panic: %v", p)
		}
		res.failed = max(res.attempted-res.ops, res.faults)
		res.failed = min(res.failed, res.attempted)
	}()
	s.Run(func() {
		r.doneC = sim.NewCond(s)
		r.build()
		w.setup(r)
		res.setup = time.Since(wallStart)

		res.start = r.snapshot()
		v0 := r.vnow()
		cpu0 := cpuTime()
		t0 := time.Now()
		w.start(r)
		s.Fork("watchdog", func() {
			s.Sleep(virtualLimit)
			r.timedOut = true
			r.doneC.Broadcast()
		})
		for r.workers > 0 && !r.timedOut {
			r.doneC.Wait()
		}
		res.elapsed = time.Since(t0)
		res.cpu = cpuTime() - cpu0
		res.virt = r.vnow() - v0
		res.end = r.snapshot()
		if r.timedOut {
			r.fail("%d worker(s) still running after %v of virtual time", r.workers, virtualLimit)
			return
		}
		res.heap = liveHeap() - heap0
		for _, f := range r.cleanup {
			f()
		}
		if r.tel != nil {
			res.actionWaitP50 = r.tel.Action.Quantile(0.50)
			res.actionWaitP99 = r.tel.Action.Quantile(0.99)
		}
		res.readyHW = s.ReadyHighWater()
		res.fp = fingerprint{
			VirtNS:  res.virt,
			SegsOut: res.end.segsOut - res.start.segsOut,
			Retrans: res.end.retrans - res.start.retrans,
			Frames:  res.end.frames - res.start.frames,
			Bytes:   res.bytes,
		}
	})
	return res
}

// build assembles the network: w.hosts hosts on one 10 Mb/s segment,
// each running the arm's TCP, with the observer planes attached when
// the round is traced or probed.
func (r *round) build() {
	w, m := r.w, r.m
	tcfg := foxnet.TCPConfig{InitialWindow: w.window}
	hc := make([]*foxnet.HostConfig, w.hosts)
	if m.traced || m.probe {
		r.tel = foxnet.NewTelemetry(foxnet.TelemetryOptions{})
	}
	for i := range hc {
		hc[i] = &foxnet.HostConfig{TCP: tcfg}
		if m.arm == fox {
			hc[i].Telemetry = r.tel
			hc[i].Profile = m.traced || m.probe
		}
	}
	wcfg := foxnet.WireConfig{Loss: w.loss, Seed: r.in.wireSeed}
	r.net = foxnet.NewNetwork(r.s, wcfg, w.hosts, hc...)
	r.lastTap = make([]int64, w.hosts)
	for _, h := range r.net.Hosts {
		switch m.arm {
		case fox:
			r.ep = append(r.ep, foxEndpoint{r, h})
		case xkernel:
			t := baseline.New(r.s, h.IP.Network(6), baseline.Config{InitialWindow: w.window})
			r.ep = append(r.ep, xkEndpoint{r, t})
		}
	}
	if m.traced {
		r.net.Tap(r.tap)
	}
}

// tap is the wire observer of a traced round: it counts wire bytes and
// stamps data-bearing frames for the deliver spans. Frames are Ethernet
// (14 bytes) + IPv4 + TCP; the destination MAC's last byte is the host
// number.
func (r *round) tap(_ string, f []byte) {
	r.res.wireBytes += int64(len(f))
	if len(f) < 14+20+20 {
		return
	}
	ipHdr := f[14:]
	ihl := int(ipHdr[0]&0x0f) * 4
	total := int(ipHdr[2])<<8 | int(ipHdr[3])
	if ipHdr[9] != 6 || len(ipHdr) < ihl+20 {
		return
	}
	doff := int(ipHdr[ihl+12]>>4) * 4
	if total-ihl-doff <= 0 {
		return
	}
	if dst := int(f[5]) - 1; dst >= 0 && dst < len(r.lastTap) {
		r.lastTap[dst] = r.sp.now()
	}
}

// delivered records a deliver span on host i: from the wire tap of the
// latest data frame addressed to it to this Data upcall.
func (r *round) delivered(host int, parent, id int32) {
	if r.sp == nil || r.lastTap[host] == 0 {
		return
	}
	r.sp.add(spanDeliver, r.lastTap[host], r.sp.now(), parent, id)
	r.lastTap[host] = 0
}

func warn(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }
