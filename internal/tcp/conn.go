package tcp

import (
	"repro/internal/profile"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Conn is one TCP connection. Every mutation of its TCB happens inside
// the quasi-synchronous executor below: operations and asynchronous
// events enqueue actions; run drains them. The thread that enqueues is
// the thread that drains — the design choice the paper makes explicit:
// "the thread executing an operation then executes actions, one at a
// time, until at least those actions it placed on the queue have
// completed execution."
type Conn struct {
	t       *TCP
	key     connKey
	name    string // key rendered once, for event labels
	state   State
	tcb     *TCB
	handler Handler

	// listener is non-nil while this connection sits in a listener's
	// half-open table (SYN received, handshake incomplete).
	listener *Listener

	executing bool

	// Synchronization with user threads (paper footnote 3).
	openCond  *sim.Cond
	closeCond *sim.Cond
	bufCond   *sim.Cond
	readCond  *sim.Cond

	// Pull-model receive state (read.go); used when Handler.Data is nil.
	recv recvState

	// telSeries is this connection's telemetry sample ring, nil when
	// telemetry is off or its slots ran out.
	telSeries *telemetry.Series

	openDone  bool
	openErr   error
	closeDone bool
	closeErr  error
	termErr   error // terminal error, sticky
	deleted   bool
}

func newConn(t *TCP, key connKey) *Conn {
	c := &Conn{
		t:     t,
		key:   key,
		name:  key.String(),
		state: StateClosed,
		tcb:   newTCB(&t.cfg, t.s.Now()),
	}
	c.openCond = sim.NewCond(t.s)
	c.closeCond = sim.NewCond(t.s)
	c.bufCond = sim.NewCond(t.s)
	c.readCond = sim.NewCond(t.s)
	if tl := t.cfg.Telemetry; tl != nil {
		c.telOpen(tl)
	}
	return c
}

// State reports the connection state.
func (c *Conn) State() State { return c.state }

// inEstabGroup reports whether a state counts toward RFC 2012's
// tcpCurrEstab (ESTABLISHED or CLOSE-WAIT).
func inEstabGroup(s State) bool { return s == StateEstab || s == StateCloseWait }

// setState is the single door through which every state-machine move
// passes. Centralizing it here keeps the RFC 2012 connection-table
// counters (CurrEstab, ActiveOpens, PassiveOpens, AttemptFails,
// EstabResets) and the structured event record exact by construction —
// no transition can forget its accounting.
func (c *Conn) setState(to State) {
	from := c.state
	if from == to {
		return
	}
	c.state = to
	m := c.t.cfg.Metrics
	if inEstabGroup(from) != inEstabGroup(to) {
		if inEstabGroup(to) {
			m.CurrEstab.Inc()
		} else {
			m.CurrEstab.Dec()
		}
	}
	switch to {
	case StateSynSent:
		m.ActiveOpens.Inc()
	case StateSynPassive:
		m.PassiveOpens.Inc()
	case StateClosed, StateListen:
		switch from {
		case StateSynSent, StateSynActive, StateSynPassive:
			m.AttemptFails.Inc()
		case StateEstab, StateCloseWait:
			m.EstabResets.Inc()
		}
	}
	if ev := c.t.cfg.Events; ev != nil {
		ev.Add(int64(c.t.s.Now()), stats.EvStateTransition, c.name, from.String()+" -> "+to.String())
	}
}

// event records a structured event for this connection. Call sites that
// format a detail string guard on Events != nil first so a host without
// a ring pays one branch and no formatting.
func (c *Conn) event(kind stats.EventKind, detail string) {
	if ev := c.t.cfg.Events; ev != nil {
		ev.Add(int64(c.t.s.Now()), kind, c.name, detail)
	}
}

// ConnStats is a snapshot of one connection's counters and estimators —
// the per-connection visibility Laminar-style TCP work depends on. The
// underlying fields are plain (not atomic): they are mutated only inside
// the quasi-synchronous executor, so reading them on-scheduler or after
// the simulation ends is race-free by the handoff discipline.
type ConnStats struct {
	State         State
	BytesIn       uint64 // payload bytes delivered in order to the user
	BytesOut      uint64 // payload bytes handed to the wire (excl. rexmits)
	SegsIn        uint64 // segments processed by this connection
	SegsOut       uint64 // segments emitted, excluding retransmissions
	Retransmits   uint64
	DupAcks       uint64 // duplicate ACKs received
	SRTT          sim.Duration
	RTTVar        sim.Duration
	RTO           sim.Duration
	SendWindow    uint32 // peer's most recent advertised window
	CongWindow    uint32
	Ssthresh      uint32 // slow-start threshold
	RecvWindow    uint32 // our receive window
	SndNxt        uint32 // next sequence number to send
	RcvNxt        uint32 // next sequence number expected
	FlightSize    uint32 // bytes sent but not yet acknowledged
	ToDoHighWater int    // deepest the to_do queue has been
}

// Stats snapshots the connection's statistics. Valid even after the
// connection is deleted from the demux table: the TCB survives, so
// post-run inspection (foxstat, tests) sees final values.
func (c *Conn) Stats() ConnStats {
	tcb := c.tcb
	return ConnStats{
		State:         c.state,
		BytesIn:       tcb.bytesIn,
		BytesOut:      tcb.bytesOut,
		SegsIn:        tcb.segsIn,
		SegsOut:       tcb.segsOut,
		Retransmits:   tcb.rexmits,
		DupAcks:       tcb.dupAcksSeen,
		SRTT:          tcb.srtt,
		RTTVar:        tcb.rttvar,
		RTO:           tcb.rto,
		SendWindow:    tcb.sndWnd,
		CongWindow:    tcb.cwnd,
		Ssthresh:      tcb.ssthresh,
		RecvWindow:    tcb.rcvWnd,
		SndNxt:        uint32(tcb.sndNxt),
		RcvNxt:        uint32(tcb.rcvNxt),
		FlightSize:    tcb.flightSize(),
		ToDoHighWater: tcb.toDoHW,
	}
}

// Name returns the connection's diagnostic label, as used in events.
func (c *Conn) Name() string { return c.name }

// Endpoint returns the TCP instance this connection belongs to.
func (c *Conn) Endpoint() *TCP { return c.t }

// LocalPort and RemotePort report the connection's ports; RemoteAddr its
// peer.
func (c *Conn) LocalPort() uint16            { return c.key.lport }
func (c *Conn) RemotePort() uint16           { return c.key.rport }
func (c *Conn) RemoteAddr() protocol.Address { return c.key.raddr }

// Err returns the connection's terminal error, if any.
func (c *Conn) Err() error { return c.termErr }

// SetHandler replaces the connection's upcall set — the staged-handler
// idiom: a user that opened with a minimal handler can install a richer
// one once the connection is established.
func (c *Conn) SetHandler(h Handler) { c.handler = h }

// MSS reports the effective send maximum segment size.
func (c *Conn) MSS() int { return c.tcb.mss }

// enqueue appends an action to the to_do queue.
func (c *Conn) enqueue(a action) {
	if c.t.cfg.DirectDispatch {
		// Ablation mode: no queue, direct (reentrant) dispatch.
		c.perform(a)
		return
	}
	e := toDoEntry{a: a}
	if c.t.observed {
		e = c.obsEnqueue(a)
	}
	c.tcb.toDo.Enqueue(e)
	if n := c.tcb.toDo.Len(); n > c.tcb.toDoHW {
		c.tcb.toDoHW = n
	}
}

// run drains the to_do queue unless an outer frame of the same thread is
// already draining it — the executor of the paper's Figure 7.
func (c *Conn) run() {
	if c.t.cfg.DirectDispatch || c.executing {
		return
	}
	c.executing = true
	for {
		e, ok := c.tcb.toDo.Dequeue()
		if !ok {
			break
		}
		if c.t.cfg.Trace.On() {
			c.t.cfg.Trace.Printf("conn %v: %s (queue %d)", c.key, e.a.actionName(), c.tcb.toDo.Len())
		}
		if !c.t.observed {
			c.perform(e.a)
			continue
		}
		// The observers (observe.go) bracket the action: the flight
		// journal's beg record, TCB snapshot and changed-field delta,
		// and telemetry's enqueue→perform wait, per-action cost and due
		// sample.
		var sp obsSpan
		c.obsBeg(&e, &sp)
		c.perform(e.a)
		c.obsEnd(&e, &sp)
	}
	c.executing = false
}

// perform executes one action. Dispatch order mirrors Fig. 8.
func (c *Conn) perform(a action) {
	switch a := a.(type) {
	case actProcessData:
		c.receiveSegment(a.seg)
	case actSendSegment:
		c.emit(a.seg, a.pkt)
	case actUserData:
		c.t.stats.BytesReceived += uint64(len(a.data))
		c.tcb.bytesIn += uint64(len(a.data))
		if c.handler.Data != nil {
			c.handler.Data(c, a.data)
		} else {
			c.bufferData(a.data)
		}
	case actUserError:
		c.failConnection(a.err)
	case actSetTimer:
		c.setTimer(a.which, a.d)
	case actClearTimer:
		c.clearTimer(a.which)
	case actTimerExpired:
		c.timerExpired(a.which)
	case actMaybeSend:
		c.sendModule()
	case actCompleteOpen:
		if !c.openDone {
			c.openDone = true
			c.openErr = a.err
			c.openCond.Broadcast()
			if a.err == nil && c.handler.Established != nil {
				c.handler.Established(c)
			}
		}
	case actCompleteClose:
		if !c.closeDone {
			c.closeDone = true
			c.closeErr = a.err
			c.closeCond.Broadcast()
		}
	case actPeerClosed:
		c.recv.eof = true
		c.readCond.Broadcast()
		if c.handler.PeerClosed != nil {
			c.handler.PeerClosed(c)
		}
	case actDeleteTCB:
		c.deleteTCB()
	}
}

// failConnection delivers a terminal error to every waiter and tears the
// connection down.
func (c *Conn) failConnection(err error) {
	if c.termErr == nil {
		c.termErr = err
	}
	c.setState(StateClosed)
	if !c.openDone {
		c.openDone = true
		c.openErr = err
		c.openCond.Broadcast()
	}
	if !c.closeDone {
		c.closeDone = true
		c.closeErr = err
		c.closeCond.Broadcast()
	}
	c.bufCond.Broadcast()
	c.readCond.Broadcast()
	if c.handler.Error != nil {
		c.handler.Error(c, err)
	}
	c.enqueue(actDeleteTCB{})
}

// deleteTCB clears timers, removes the connection from the demux map,
// and returns every byte it charged to the endpoint memory account.
func (c *Conn) deleteTCB() {
	if c.deleted {
		return
	}
	c.deleted = true
	c.setState(StateClosed)
	c.leaveHalfOpen()
	for id := timerID(0); id < numTimers; id++ {
		c.clearTimer(id)
	}
	if c.t.conns[c.key] == c {
		delete(c.t.conns, c.key)
	}
	// Release the send queue, the reassembly queue (nil the slots so the
	// backing array retains nothing), and the receive-buffer charge. The
	// receive buffer itself stays readable — Read drains delivered data
	// even after teardown — but it no longer counts against the account.
	tcb := c.tcb
	if tcb.queuedBytes > 0 {
		c.t.memCharge(-tcb.queuedBytes)
		tcb.queued.Clear()
		tcb.queuedBytes = 0
		tcb.queuedFront = 0
	}
	for i := range tcb.outOfOrder {
		tcb.outOfOrder[i] = nil
	}
	tcb.outOfOrder = tcb.outOfOrder[:0]
	if tcb.oooBytes > 0 {
		c.t.memCharge(-tcb.oooBytes)
		tcb.oooBytes = 0
	}
	if c.recv.charged > 0 {
		c.t.memCharge(-c.recv.charged)
		c.recv.charged = 0
	}
	c.bufCond.Broadcast()
}

// Write queues data for transmission, blocking the calling thread while
// the send buffer is full. The implementation references data's bytes
// only until they are segmentized (copied once into a packet); callers
// must not mutate the slice before Write returns.
func (c *Conn) Write(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	tl := c.t.cfg.Telemetry
	var telStart sim.Time
	if tl != nil {
		telStart = c.t.s.Now()
	}
	for len(data) > 0 {
		if c.termErr != nil {
			return c.termErr
		}
		if c.tcb.finQueued || c.state == StateClosed && c.openDone {
			return ErrClosed
		}
		space := c.t.cfg.SendBufferLimit - c.tcb.queuedBytes
		if space <= 0 {
			c.bufCond.Wait()
			continue
		}
		n := len(data)
		if n > space {
			n = space
		}
		c.recBeginUser("write", n)
		sec := c.t.cfg.Prof.Start(profile.CatTCP)
		c.tcb.queuePush(data[:n])
		c.t.memCharge(n)
		c.enqueue(actMaybeSend{})
		c.run()
		sec.Stop()
		c.recEndUser()
		data = data[n:]
	}
	if tl != nil {
		c.telUser(&tl.Write, telStart)
	}
	return nil
}

// WriteUrgent queues data like Write but marks its final byte as the
// urgent point; outgoing segments carry URG until it is sent. The peer's
// Handler.Urgent upcall reports the advancing urgent pointer; data still
// arrives in-band through Handler.Data, as modern stacks deliver it.
func (c *Conn) WriteUrgent(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	c.recUop("wurg", len(data))
	c.tcb.sndUpSeq = c.tcb.sndNxt + seq(sat32(c.tcb.queuedBytes)) + seq(len(data))
	c.tcb.urgentPending = true
	return c.Write(data)
}

// Close initiates a graceful close (FIN after all queued data) and
// blocks until our FIN is acknowledged or the connection fails.
func (c *Conn) Close() error {
	if c.termErr != nil {
		return c.termErr
	}
	if c.tcb.finQueued {
		// Second close: just wait with the first.
	} else {
		c.recBeginUser("close", 0)
		sec := c.t.cfg.Prof.Start(profile.CatTCP)
		c.stateClose()
		c.run()
		sec.Stop()
		c.recEndUser()
	}
	for !c.closeDone {
		c.closeCond.Wait()
	}
	return c.closeErr
}

// Shutdown initiates a graceful close without waiting for the FIN to be
// acknowledged. Use it from inside upcalls — Close would block the
// device thread that is delivering the upcall, which can never then
// receive the acknowledgment it is waiting for.
func (c *Conn) Shutdown() {
	if c.termErr != nil || c.tcb.finQueued {
		return
	}
	c.recBeginUser("close", 0)
	c.stateClose()
	c.run()
	c.recEndUser()
}

// Abort resets the connection: RST to the peer, error to every waiter.
func (c *Conn) Abort() {
	c.recBeginUser("abort", 0)
	sec := c.t.cfg.Prof.Start(profile.CatTCP)
	c.stateAbort(ErrAborted)
	c.run()
	sec.Stop()
	c.recEndUser()
}
