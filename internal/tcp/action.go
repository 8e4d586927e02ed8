package tcp

import (
	"time"

	"repro/internal/basis"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timers"
)

// This file is the paper's Action module: "the time-dependent operations
// … timers and segment externalization and internalization."
// (Internalization lives in TCP.handler / segment.unmarshal.)

// setTimer (re)starts one of the connection's timers. Expiration only
// enqueues a Timer_Expiration action and drains the queue — the
// asynchronous half of the quasi-synchronous structure.
func (c *Conn) setTimer(which timerID, d sim.Duration) {
	if old := c.tcb.timer[which]; old != nil {
		old.Clear()
	}
	c.tcb.armed[which] = true
	if c.t.replay {
		// Replayed endpoints never fire timers themselves — expirations
		// come from the journal. An inert placeholder keeps the slot's
		// nil-ness evolving exactly as it did live.
		c.tcb.timer[which] = &timers.Timer{}
		return
	}
	c.tcb.timer[which] = timers.Start(c.t.s, func() {
		sec := c.t.cfg.Prof.Start(profile.CatTCP)
		c.t.cfg.Flight.BeginTimer(int(which))
		c.enqueue(actTimerExpired{which: which})
		c.run()
		c.t.cfg.Flight.EndCause()
		sec.Stop()
	}, d)
}

// clearTimer cancels a timer if it is set.
func (c *Conn) clearTimer(which timerID) {
	if t := c.tcb.timer[which]; t != nil {
		t.Clear()
		c.tcb.timer[which] = nil
		c.tcb.armed[which] = false
	}
}

// timerExpired performs the synchronous part of a timer expiration.
func (c *Conn) timerExpired(which timerID) {
	c.tcb.armed[which] = false
	if c.deleted {
		return
	}
	switch which {
	case timerRexmit:
		c.resendTimeout()
	case timerDelayedAck:
		if c.tcb.ackPending {
			c.t.stats.AcksDelayed++
			c.tcb.ackNow = true
			c.sendModule()
		}
	case timerPersist:
		c.persistTimeout()
	case timerTimeWait:
		// 2×MSL elapsed: the connection finally evaporates.
		c.enqueue(actCompleteClose{})
		c.enqueue(actDeleteTCB{})
	case timerUser:
		// Establishment (or close) took longer than the user timeout.
		c.stateAbort(ErrTimeout)
	case timerKeepalive:
		c.keepaliveExpired()
	}
}

// keepaliveExpired probes an idle connection (RFC 1122 §4.2.3.6): a
// zero-length segment with seq = snd_nxt-1 forces a duplicate ACK from a
// live peer. Any traffic from the peer resets the probe count.
func (c *Conn) keepaliveExpired() {
	tcb := c.tcb
	if !c.state.synchronized() || c.state == StateTimeWait {
		return
	}
	idle := sim.Duration(c.t.s.Now() - tcb.lastRecv)
	if idle < c.t.cfg.KeepaliveIdle {
		// Heard from the peer since the timer was set: re-arm for the
		// remainder rather than forking per segment.
		c.enqueue(actSetTimer{which: timerKeepalive, d: c.t.cfg.KeepaliveIdle - idle})
		return
	}
	if tcb.keepaliveProbes >= c.t.cfg.KeepaliveCount {
		c.t.cfg.Trace.Printf("conn %v: keepalive gave up after %d probes", c.key, tcb.keepaliveProbes)
		c.stateAbort(ErrTimeout)
		return
	}
	tcb.keepaliveProbes++
	probe := &segment{
		srcPort: c.key.lport, dstPort: c.key.rport,
		seq: tcb.sndNxt - 1, flags: flagACK,
	}
	c.enqueue(actSendSegment{seg: probe})
	c.enqueue(actSetTimer{which: timerKeepalive, d: c.t.cfg.KeepaliveIdle})
}

// emit externalizes one segment: allocate the packet (unless the Send
// module already built one around the payload), write the header in
// place, checksum, and hand it to the lower layer.
//
//foxvet:hotpath
func (c *Conn) emit(sg *segment, pkt *basis.Packet) {
	tcb := c.tcb
	// Outgoing segments always carry the freshest window — shrunk under
	// endpoint memory pressure — and, when synchronized, the freshest ack.
	sg.wnd = c.advertisedWindowFor(tcb.rcvWnd)
	if sg.has(flagACK) {
		sg.ack = tcb.rcvNxt
		tcb.lastAdvWnd = uint32(sg.wnd)
	}
	if pkt == nil {
		cp := c.t.cfg.Prof.Start(profile.CatCopy)
		pkt = basis.NewPacket(c.t.net.Headroom()+sg.headerBytes(), c.t.net.Tailroom(), sg.data) //foxvet:boundary-copy retransmission: the original packet left with the device, so the wire image is rebuilt from the retained segment (charged to CatCopy)
		cp.Stop()
	}
	compute := c.t.cfg.computeChecksums()
	var pseudo uint16
	if compute {
		pseudo = c.t.net.PseudoHeaderChecksum(c.key.raddr, sg.headerBytes()+len(sg.data))
	}
	cks := c.t.cfg.Prof.Start(profile.CatChecksum)
	sg.marshal(pkt, pseudo, compute)
	cks.Stop()
	if compute {
		c.chargeDataPath(profile.CatChecksum, c.t.cfg.DataPath.ChecksumPerKB, sg.headerBytes()+len(sg.data))
	}

	// Sending any ACK satisfies a pending delayed ACK (retransmissions
	// included; first transmissions already settled at decision time).
	if sg.has(flagACK) {
		c.clearAckDebt()
	}
	if sg.has(flagRST) {
		c.t.cfg.Metrics.OutRsts.Inc()
		c.event(stats.EvRST, "sent")
	}
	// RFC 2012 splits output: OutSegs excludes retransmissions, which
	// RetransSegs counts instead. A segment re-emitted from the
	// retransmission queue has rexmits > 0.
	if sg.rexmits > 0 {
		c.t.cfg.Metrics.RetransSegs.Inc()
		c.tcb.rexmits++
	} else {
		c.t.cfg.Metrics.OutSegs.Inc()
		c.tcb.segsOut++
	}
	if c.t.cfg.Trace.On() {
		c.t.cfg.Trace.Printf("tx %v %s", c.key.raddr, sg)
	}
	c.t.net.Send(c.key.raddr, pkt)
}

// chargeDataPath charges the calibrated per-KB cost for n bytes of a
// data-touching operation, attributed to cat as its own profile section
// so the exclusive accounting stays correct.
func (c *Conn) chargeDataPath(cat profile.Category, perKB sim.Duration, n int) {
	if perKB == 0 || n == 0 {
		return
	}
	sec := c.t.cfg.Prof.Start(cat)
	c.t.s.Charge(perKB * sim.Duration(n) / 1024)
	sec.Stop()
}

// advertisedWindow clamps the receive window into the 16-bit header
// field (no window scaling in 1994).
func advertisedWindow(w uint32) uint16 {
	if w > 0xffff {
		return 0xffff
	}
	return uint16(w)
}

// twoMSL is the TIME-WAIT duration.
func (c *Conn) twoMSL() sim.Duration { return 2 * c.t.cfg.MSL }

// persistBackoff returns the persist-probe interval for the current
// backoff count, doubling up to a minute or the configured
// BackoffCeiling, whichever is lower.
func (c *Conn) persistBackoff() sim.Duration {
	d := c.t.cfg.PersistInterval << c.tcb.shiftBackoff()
	if d > time.Minute {
		d = time.Minute
	}
	if d > c.t.cfg.BackoffCeiling {
		d = c.t.cfg.BackoffCeiling
	}
	return d
}
