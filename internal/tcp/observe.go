package tcp

// Observer glue: the tcp side of the flight recorder (internal/flight)
// and the telemetry plane (internal/telemetry). Every function in this
// file only *observes* — it reads the TCB, emits journal records, and
// mutates telemetry atomics — and never calls enqueue/run/perform or
// the protected Receive/Send/Resend modules, never charges virtual
// time, and never arms a timer. That is what keeps an observed run
// bit-identical to the same run unobserved: the quasisync analyzer
// machine-checks the structural half for this file, and the replay and
// telemetry-overhead runs check the dynamic half.
//
// Both planes watch the executor's single door through one pair of
// hooks. obsEnqueue stamps each to_do entry once, with its journal seq
// and enqueue time; obsBeg and obsEnd bracket its drain. The executor
// in conn.go calls them behind one flag, TCP.observed, so an endpoint
// with both planes off pays one branch per door crossing.

import (
	"encoding/json"
	"strconv"
	"time"

	"repro/internal/flight"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// recordedConfig is the journal form of the resolved Config: everything
// replay needs to rebuild an identically-parameterized endpoint. Written
// once into the hdr record. Durations are nanoseconds.
type recordedConfig struct {
	InitialWindow     int   `json:"iw"`
	ComputeChecksums  bool  `json:"cks"`
	AbortUnknown      bool  `json:"au"`
	UserTimeout       int64 `json:"ut"`
	MSL               int64 `json:"msl"`
	DelayedAcks       bool  `json:"da"`
	AckDelay          int64 `json:"ad"`
	Nagle             bool  `json:"ng"`
	FastPath          bool  `json:"fp"`
	CongestionControl bool  `json:"cc"`
	InitialRTO        int64 `json:"irto"`
	MinRTO            int64 `json:"minrto"`
	MaxRTO            int64 `json:"maxrto"`
	BackoffCeiling    int64 `json:"bc"`
	SendBufferLimit   int   `json:"sbl"`
	ReassemblyLimit   int   `json:"rl"`
	MaxSynBacklog     int   `json:"msb"`
	MemoryLimit       int   `json:"ml"`
	ChallengeACKLimit int   `json:"cal"`
	PersistInterval   int64 `json:"pi"`
	Keepalive         bool  `json:"ka"`
	KeepaliveIdle     int64 `json:"kai"`
	KeepaliveCount    int   `json:"kac"`
	CopyPerKB         int64 `json:"cpk"`
	ChecksumPerKB     int64 `json:"xpk"`
}

// journalConfig captures the endpoint's resolved configuration.
func (t *TCP) journalConfig() recordedConfig {
	cfg := &t.cfg
	return recordedConfig{
		InitialWindow:     cfg.InitialWindow,
		ComputeChecksums:  cfg.computeChecksums(),
		AbortUnknown:      cfg.abortUnknown(),
		UserTimeout:       int64(cfg.UserTimeout),
		MSL:               int64(cfg.MSL),
		DelayedAcks:       cfg.delayedAcks(),
		AckDelay:          int64(cfg.AckDelay),
		Nagle:             cfg.nagle(),
		FastPath:          cfg.fastPath(),
		CongestionControl: cfg.congestionControl(),
		InitialRTO:        int64(cfg.InitialRTO),
		MinRTO:            int64(cfg.MinRTO),
		MaxRTO:            int64(cfg.MaxRTO),
		BackoffCeiling:    int64(cfg.BackoffCeiling),
		SendBufferLimit:   cfg.SendBufferLimit,
		ReassemblyLimit:   cfg.ReassemblyLimit,
		MaxSynBacklog:     cfg.MaxSynBacklog,
		MemoryLimit:       cfg.MemoryLimit,
		ChallengeACKLimit: cfg.ChallengeACKLimit,
		PersistInterval:   int64(cfg.PersistInterval),
		Keepalive:         cfg.Keepalive,
		KeepaliveIdle:     int64(cfg.KeepaliveIdle),
		KeepaliveCount:    cfg.KeepaliveCount,
		CopyPerKB:         int64(cfg.DataPath.CopyPerKB),
		ChecksumPerKB:     int64(cfg.DataPath.ChecksumPerKB),
	}
}

func boolPtr(b bool) *bool {
	if b {
		return Enable
	}
	return Disable
}

// config rebuilds a Config that fill() resolves to exactly the recorded
// parameters.
func (rc recordedConfig) config() Config {
	return Config{
		InitialWindow:           rc.InitialWindow,
		ComputeChecksums:        boolPtr(rc.ComputeChecksums),
		AbortUnknownConnections: boolPtr(rc.AbortUnknown),
		UserTimeout:             sim.Duration(rc.UserTimeout),
		MSL:                     sim.Duration(rc.MSL),
		DelayedAcks:             boolPtr(rc.DelayedAcks),
		AckDelay:                sim.Duration(rc.AckDelay),
		Nagle:                   boolPtr(rc.Nagle),
		FastPath:                boolPtr(rc.FastPath),
		CongestionControl:       boolPtr(rc.CongestionControl),
		InitialRTO:              sim.Duration(rc.InitialRTO),
		MinRTO:                  sim.Duration(rc.MinRTO),
		MaxRTO:                  sim.Duration(rc.MaxRTO),
		BackoffCeiling:          sim.Duration(rc.BackoffCeiling),
		SendBufferLimit:         rc.SendBufferLimit,
		ReassemblyLimit:         rc.ReassemblyLimit,
		MaxSynBacklog:           rc.MaxSynBacklog,
		MemoryLimit:             rc.MemoryLimit,
		ChallengeACKLimit:       rc.ChallengeACKLimit,
		PersistInterval:         sim.Duration(rc.PersistInterval),
		Keepalive:               rc.Keepalive,
		KeepaliveIdle:           sim.Duration(rc.KeepaliveIdle),
		KeepaliveCount:          rc.KeepaliveCount,
		DataPath: DataPathCosts{
			CopyPerKB:     sim.Duration(rc.CopyPerKB),
			ChecksumPerKB: sim.Duration(rc.ChecksumPerKB),
		},
	}
}

// recHdr writes the journal's run header. Called once at endpoint
// assembly.
func (t *TCP) recHdr() {
	fr := t.cfg.Flight
	if fr == nil {
		return
	}
	cj, err := json.Marshal(t.journalConfig())
	if err != nil {
		return
	}
	fr.Hdr(t.net.LocalAddr().String(), t.net.MTU(), cj)
}

// recOpen records this connection's creation, attributed to whatever
// cause is current (the user's open call, or the packet that hit the
// listener).
func (c *Conn) recOpen(origin string) {
	fr := c.t.cfg.Flight
	if fr == nil {
		return
	}
	fr.OpenConn(int64(c.t.s.Now()), c.name, origin,
		c.key.raddr.String(), c.key.rport, c.key.lport,
		c.handler.Data == nil, c.listener != nil)
}

// recBeginUser records a user operation (write/read/close/abort) and
// pushes it as the cause of every enqueue until recEndUser.
func (c *Conn) recBeginUser(op string, n int) {
	fr := c.t.cfg.Flight
	if fr == nil {
		return
	}
	q := fr.UserOp(int64(c.t.s.Now()), c.name, op, n)
	fr.BeginUser(q)
}

// recEndUser pops the user-operation cause (nil-safe).
func (c *Conn) recEndUser() {
	c.t.cfg.Flight.EndCause()
}

// recUop records a user operation that causes no enqueues of its own
// (WriteUrgent's urgent-pointer mark).
func (c *Conn) recUop(op string, n int) {
	if fr := c.t.cfg.Flight; fr != nil {
		fr.UserOp(int64(c.t.s.Now()), c.name, op, n)
	}
}

// obsEnqueue stamps an action entering the to_do queue: its enqueue
// virtual time for telemetry's wait histogram and, when journaling, the
// seq of its enq record, which the drain's beg/end records name.
//
//foxvet:hotpath
func (c *Conn) obsEnqueue(a action) toDoEntry {
	e := toDoEntry{a: a, enqAt: int64(c.t.s.Now())}
	if fr := c.t.cfg.Flight; fr != nil {
		c.t.recArgs = appendActionArgs(c.t.recArgs[:0], a)
		e.seq = fr.Enqueue(e.enqAt, c.name, a.actionName(), c.t.recArgs)
	}
	return e
}

// obsSpan carries one observed drain's pre-perform state from obsBeg to
// obsEnd.
type obsSpan struct {
	pre    tcbSnap   // TCB before the action (flight)
	vstart int64     // virtual time the action started (telemetry)
	wstart time.Time // wall time the action started (telemetry)
}

// obsBeg observes the executor starting an action. The flight recorder
// journals the beg record, pushes the action as the cause of its own
// enqueues, and snapshots the TCB; telemetry records the
// enqueue→perform wait and starts the action's cost clocks.
//
//foxvet:hotpath
func (c *Conn) obsBeg(e *toDoEntry, sp *obsSpan) {
	now := int64(c.t.s.Now())
	if fr := c.t.cfg.Flight; fr != nil {
		fr.Beg(now, c.name, e.seq)
		fr.BeginAct(e.seq)
		sp.pre = c.snapTCB()
	}
	if tl := c.t.cfg.Telemetry; tl != nil {
		tl.Action.Observe(uint64(now - e.enqAt))
		sp.vstart, sp.wstart = now, time.Now()
	}
}

// obsEnd observes the action's completion. The flight recorder pops the
// action cause and journals the changed-field TCB delta — the paper's
// test-by-TCB-comparison discipline applied to every action; telemetry
// attributes the action's virtual and wall time and takes a due
// time-series sample. The sampler is driven from virtual time by
// piggybacking on executor activity: no timer is ever armed for
// telemetry, so an observed run's schedule is the unobserved one.
//
//foxvet:hotpath
func (c *Conn) obsEnd(e *toDoEntry, sp *obsSpan) {
	if fr := c.t.cfg.Flight; fr != nil {
		fr.EndCause()
		post := c.snapTCB()
		c.t.recDelta = appendSnapDelta(c.t.recDelta[:0], &sp.pre, &post)
		fr.End(c.name, e.seq, c.t.recDelta)
	}
	if tl := c.t.cfg.Telemetry; tl != nil {
		now := int64(c.t.s.Now())
		tl.Prof.Record(telKind(e.a), now-sp.vstart, time.Since(sp.wstart).Nanoseconds())
		c.telSample(tl, now)
	}
}

// tcbSnap is the journaled projection of a TCB: the fields whose
// evolution the paper's test-by-TCB-comparison methodology tracks, as
// int64s in snapNames order.
type tcbSnap [14]int64

// snapNames are the delta field names, aligned with tcbSnap indices.
var snapNames = [14]string{
	"state", "snd_una", "snd_nxt", "rcv_nxt", "snd_wnd", "rcv_wnd",
	"cwnd", "ssthresh", "rto", "timers", "qb", "ooo", "rexq", "rcvbuf",
}

// snapTCB projects the connection's current TCB.
//
//foxvet:hotpath
func (c *Conn) snapTCB() tcbSnap {
	tcb := c.tcb
	var armed int64
	for i := timerID(0); i < numTimers; i++ {
		if tcb.armed[i] {
			armed |= 1 << uint(i)
		}
	}
	return tcbSnap{
		int64(c.state),
		int64(uint32(tcb.sndUna)),
		int64(uint32(tcb.sndNxt)),
		int64(uint32(tcb.rcvNxt)),
		int64(tcb.sndWnd),
		int64(tcb.rcvWnd),
		int64(tcb.cwnd),
		int64(tcb.ssthresh),
		int64(tcb.rto),
		armed,
		int64(tcb.queuedBytes),
		int64(tcb.oooBytes),
		int64(tcb.rexmitQ.Len()),
		int64(c.recv.buffered),
	}
}

// appendSnapDelta renders the changed fields between two snapshots as
// flight delta pairs.
func appendSnapDelta(dst []byte, pre, post *tcbSnap) []byte {
	for i := range pre {
		if pre[i] != post[i] {
			dst = flight.AppendDelta(dst, snapNames[i], pre[i], post[i])
		}
	}
	return dst
}

// appendActionArgs renders an action's deterministic arguments — what
// the replay audit compares at every drain to prove the reconstructed
// machine is enqueueing the same work the live machine did.
func appendActionArgs(dst []byte, a action) []byte {
	switch a := a.(type) {
	case actProcessData:
		dst = appendSegArgs(dst, a.seg)
	case actSendSegment:
		dst = appendSegArgs(dst, a.seg)
		dst = append(dst, " rexmits="...)
		dst = strconv.AppendInt(dst, int64(a.seg.rexmits), 10)
	case actUserData:
		dst = append(dst, "len="...)
		dst = strconv.AppendInt(dst, int64(len(a.data)), 10)
	case actUserError:
		dst = append(dst, "err="...)
		dst = append(dst, a.err.Error()...)
	case actSetTimer:
		dst = append(dst, "d="...)
		dst = strconv.AppendInt(dst, int64(a.d), 10)
	case actCompleteOpen:
		if a.err != nil {
			dst = append(dst, "err="...)
			dst = append(dst, a.err.Error()...)
		}
	case actCompleteClose:
		if a.err != nil {
			dst = append(dst, "err="...)
			dst = append(dst, a.err.Error()...)
		}
	}
	return dst
}

func appendSegArgs(dst []byte, sg *segment) []byte {
	dst = append(dst, "seq="...)
	dst = strconv.AppendUint(dst, uint64(uint32(sg.seq)), 10)
	dst = append(dst, " flags="...)
	dst = strconv.AppendUint(dst, uint64(sg.flags), 10)
	dst = append(dst, " len="...)
	dst = strconv.AppendInt(dst, int64(len(sg.data)), 10)
	return dst
}

// telKind maps an action to its telemetry index. A type switch on the
// static kinds — actionName() formats per-timer labels and allocates,
// which the hot path cannot afford.
//
//foxvet:hotpath
func telKind(a action) telemetry.ActKind {
	switch a.(type) {
	case actProcessData:
		return telemetry.ActProcessData
	case actSendSegment:
		return telemetry.ActSendSegment
	case actUserData:
		return telemetry.ActUserData
	case actUserError:
		return telemetry.ActUserError
	case actSetTimer:
		return telemetry.ActSetTimer
	case actClearTimer:
		return telemetry.ActClearTimer
	case actTimerExpired:
		return telemetry.ActTimerExpired
	case actMaybeSend:
		return telemetry.ActMaybeSend
	case actCompleteOpen:
		return telemetry.ActCompleteOpen
	case actCompleteClose:
		return telemetry.ActCompleteClose
	case actPeerClosed:
		return telemetry.ActPeerClosed
	default:
		return telemetry.ActDeleteTCB
	}
}

// telOpen claims a series ring for a fresh connection. Called from
// newConn; a nil ring (slots exhausted) just disables sampling for this
// connection, histograms and the profile still record.
func (c *Conn) telOpen(tl *telemetry.Telemetry) {
	c.telSeries = tl.OpenSeries(c.name)
}

// telSample appends one Point to the connection's ring when the pacing
// says one is due.
//
//foxvet:hotpath
func (c *Conn) telSample(tl *telemetry.Telemetry, now int64) {
	sr := c.telSeries
	if sr == nil || !sr.Due(now, tl.SampleEveryNS()) {
		return
	}
	tcb := c.tcb
	p := telemetry.Point{
		At:       now,
		Cwnd:     int64(tcb.cwnd),
		Ssthresh: int64(tcb.ssthresh),
		SRTT:     int64(tcb.srtt),
		RTTVar:   int64(tcb.rttvar),
		RTO:      int64(tcb.rto),
		Flight:   int64(tcb.flightSize()),
		SndWnd:   int64(tcb.sndWnd),
		RcvWnd:   int64(tcb.rcvWnd),
		OOOBytes: int64(tcb.oooBytes),
		MemUsed:  int64(c.t.mem.used),
	}
	sr.Append(&p)
}

// telRTT feeds one admitted round-trip measurement to the RTT
// histogram. Called from the estimator in resend.go.
//
//foxvet:hotpath
func (c *Conn) telRTT(m sim.Duration) {
	if tl := c.t.cfg.Telemetry; tl != nil {
		tl.RTT.Observe(uint64(m))
	}
}

// telUser observes one completed user operation (Read/Write) against
// the given histogram: the full blocking span, flow-control stalls
// included.
//
//foxvet:hotpath
func (c *Conn) telUser(h *telemetry.Hist, start sim.Time) {
	h.Observe(uint64(c.t.s.Now() - start))
}
