package main

import (
	"encoding/binary"
	"time"
)

// The host reference is a fixed piece of work, written here and never
// changed with the stack, that does what the stack does per segment: it
// hands control between two goroutines through one-slot channels, as
// the sim scheduler does, allocates a frame and a few small headers,
// copies a payload into the frame, checksums it, and looks a connection
// up in a map. Its speed in a run measures how fast the host is at that
// moment. Other guests on a shared machine slow every instruction, and
// CPU time cannot exclude that; dividing a round's rate by the speed of
// the reference run next to it takes most of it out.

// hostRefPackets is the reference's work per run: 4 ms of CPU on a host
// of speed 1.
const hostRefPackets = 4000

// hostRefRate is the reference's packets per CPU second on a host of
// speed 1. Normalised metrics read as they would on such a host.
const hostRefRate = 1.0e6

type refHeader struct {
	src, dst   uint32
	seq, ack   uint32
	flags, wnd uint16
	next       *refHeader
}

// hostRefSink keeps the reference's results live.
var hostRefSink uint32

// hostRef runs the reference once and returns its packets per second of
// process CPU time.
func hostRef() float64 {
	payload := make([]byte, 1460)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	conns := make(map[uint32]*refHeader, 64)
	for i := uint32(0); i < 64; i++ {
		conns[i*2654435761] = &refHeader{src: i}
	}
	keep := make([]*refHeader, 256) // recent headers stay live, as queued segments do
	ping, pong := make(chan struct{}, 1), make(chan struct{}, 1)
	done := make(chan struct{})
	var sum uint32

	cpu0 := cpuTime()
	go func() {
		for range hostRefPackets {
			<-ping
			pong <- struct{}{}
		}
		close(done)
	}()
	for i := range hostRefPackets {
		frame := make([]byte, 14+20+20+len(payload))
		copy(frame[54:], payload)
		s := uint32(0)
		for j := 0; j+1 < len(frame); j += 2 {
			s += uint32(binary.BigEndian.Uint16(frame[j:]))
		}
		h := &refHeader{seq: uint32(i), ack: s, wnd: uint16(s >> 16), flags: uint16(len(frame))}
		h.next = conns[uint32(i%64)*2654435761]
		keep[i%len(keep)] = h
		sum += s + uint32(h.next.src)
		ping <- struct{}{}
		<-pong
	}
	<-done
	cpu := cpuTime() - cpu0
	hostRefSink += sum
	return hostRefPackets / max(cpu, time.Microsecond).Seconds()
}
