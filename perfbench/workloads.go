package main

import (
	"encoding/binary"
	"time"

	"repro/internal/sim"
)

const port = 5001

// workload is one traffic mix. A round builds w.hosts hosts, runs setup
// (listeners and pre-opened connections, timed as set-up), then start,
// which forks the timed phase's closed-loop workers.
type workload struct {
	name   string
	hosts  int
	window int
	loss   float64
	// perKiB: per-layer metrics are normalised per KiB delivered
	// (stream workloads) instead of per op.
	perKiB bool
	ops    func(sz sizes) int // ops one round plans
	setup  func(r *round)
	start  func(r *round)
}

// workloads are the benchmark's traffic mixes. README.md says why each
// exists, which layers it loads and which it bypasses.
var workloads = []*workload{
	{
		name: "bulk", hosts: 2, window: 4096, perKiB: true,
		ops: func(sz sizes) int { return blocks(sz.bulkBytes) },
		setup: func(r *round) {
			r.streamSetup([]int{0}, 1, [][]byte{r.in.bulk})
		},
		start: func(r *round) { r.streamStart() },
	},
	{
		name: "rpc", hosts: 2, window: 4096,
		ops:   func(sz sizes) int { return 2 * sz.rpcTxns },
		setup: func(r *round) { r.rpcSetup() },
		start: func(r *round) { r.rpcStart() },
	},
	{
		name: "churn", hosts: 3, window: 4096,
		ops:   func(sz sizes) int { return 2 * sz.churnConns },
		setup: func(r *round) { r.churnSetup() },
		start: func(r *round) { r.churnStart() },
	},
	{
		name: "lossy", hosts: 3, window: 16 << 10, loss: 0.02, perKiB: true,
		ops: func(sz sizes) int { return 2 * blocks(sz.lossyBytes) },
		setup: func(r *round) {
			r.streamSetup([]int{0, 1}, 2, [][]byte{r.in.flows[0], r.in.flows[1]})
		},
		start: func(r *round) { r.streamStart() },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func blocks(n int) int { return (n + blockBytes - 1) / blockBytes }

// ---- bulk and lossy: Table 1 transfers -------------------------------

// flow is one Table 1 transfer: the receiver sends a 4-byte request
// naming the size, the sender answers with the seeded payload written
// in large chunks, and the receiver verifies every byte.
type flow struct {
	id      int32
	c       conn
	payload []byte
	off     int // bytes received and checked
	done    *sim.Cond
	op      int32 // the transfer's op span

	blockOK    bool // every byte of the current block matched
	blockStart int
	rxHost     int
}

// writeChunk is the sender's Write size: large, so the stack, not the
// application, segments the stream.
const writeChunk = 64 << 10

// streamSetup makes each sender host listen and the receiver host open
// one connection to each.
func (r *round) streamSetup(senders []int, receiver int, payloads [][]byte) {
	for i, h := range senders {
		payload := payloads[i]
		if r.sz.plant == plantCorrupt {
			payload = append([]byte(nil), payload...)
			payload[len(payload)/2] ^= 0x01
		}
		fl := i
		err := r.ep[h].listen(port, func(c conn) upcalls {
			var req [4]byte
			n := 0
			return upcalls{
				data: func(p []byte) {
					n += copy(req[n:], p)
					if n < len(req) {
						return
					}
					want := int(binary.BigEndian.Uint32(req[:]))
					r.s.Fork("bulk-sender", func() {
						for off := 0; off < want; off += writeChunk {
							end := min(off+writeChunk, want)
							ws := r.sp.begin(spanWrite, r.flows[fl].op, int32(fl))
							if err := c.Write(payload[off:end]); err != nil {
								r.fail("sender write: %v", err)
								return
							}
							r.sp.end(ws)
						}
					})
				},
				peerClosed: c.Shutdown,
			}
		})
		if err != nil {
			r.fail("listen: %v", err)
		}
	}
	for i, h := range senders {
		f := &flow{id: int32(i), payload: payloads[i], done: sim.NewCond(r.s), op: -1, rxHost: receiver}
		r.flows = append(r.flows, f)
		opn := r.sp.begin(spanOpen, -1, f.id)
		c, err := r.ep[receiver].open(r.net.Hosts[h].Addr, port, upcalls{data: func(p []byte) { r.streamData(f, p) }})
		r.sp.end(opn)
		if err != nil {
			r.fail("open: %v", err)
			continue
		}
		f.c = c
		r.cleanup = append(r.cleanup, func() {
			cs := r.sp.begin(spanClose, -1, f.id)
			if err := c.Close(); err != nil {
				r.fail("close: %v", err)
			}
			r.sp.end(cs)
		})
	}
}

// streamStart forks one closed-loop receiver per flow.
func (r *round) streamStart() {
	r.blockWall, r.blockVirt = time.Now(), r.vnow()
	for _, f := range r.flows {
		if f.c == nil {
			continue
		}
		r.fork("stream-receiver", func() {
			f.op = r.sp.begin(spanOp, -1, f.id)
			f.blockOK = true
			var req [4]byte
			binary.BigEndian.PutUint32(req[:], uint32(len(f.payload)))
			ws := r.sp.begin(spanWrite, f.op, f.id)
			if err := f.c.Write(req[:]); err != nil {
				r.fail("request: %v", err)
				return
			}
			r.sp.end(ws)
			for f.off < len(f.payload) && !r.timedOut {
				f.done.Wait()
			}
			r.sp.end(f.op)
		})
	}
}

// streamData verifies delivered bytes against the payload and closes an
// op at every block boundary. A block's latency is the time since the
// receiver completed the previous block of any flow: with two flows, a
// flow stalled on a retransmission does not stretch the other's blocks.
func (r *round) streamData(f *flow, p []byte) {
	r.delivered(f.rxHost, f.op, f.id)
	for len(p) > 0 {
		if f.off >= len(f.payload) {
			r.fail("flow %d: %d bytes past the end of the payload", f.id, len(p))
			return
		}
		blockEnd := min(f.blockStart+blockBytes, len(f.payload))
		n := min(len(p), blockEnd-f.off)
		want := f.payload[f.off : f.off+n]
		if string(p[:n]) != string(want) {
			f.blockOK = false
		} else {
			r.res.bytes += int64(n)
		}
		f.off += n
		p = p[n:]
		if f.off == blockEnd {
			now, vnow := time.Now(), r.vnow()
			r.opDone(now.Sub(r.blockWall), vnow-r.blockVirt, f.blockOK)
			f.blockOK, f.blockStart = true, blockEnd
			r.blockWall, r.blockVirt = now, vnow
		}
	}
	if f.off == len(f.payload) {
		f.done.Signal()
	}
}

// ---- rpc: persistent closed-loop request/reply ----------------------

// rpcClient is one persistent connection's client side.
type rpcClient struct {
	id    int32
	c     conn
	req   [reqLen]byte
	want  int // reply bytes expected
	got   int // reply bytes received and checked
	ok    bool
	op    int32
	reply *sim.Cond
}

// rpcRequestID places the op id after the reply size, so the server can
// parent its deliver span under the client's op.
func rpcRequestID(req []byte) int32 { return int32(binary.BigEndian.Uint32(req[2:6])) }

func (r *round) rpcSetup() {
	err := r.ep[0].listen(port, func(c conn) upcalls {
		var req [reqLen]byte
		reply := make([]byte, maxReply)
		n := 0
		return upcalls{
			data: func(p []byte) {
				for len(p) > 0 {
					k := copy(req[n:], p)
					n += k
					p = p[k:]
					if n < reqLen {
						continue
					}
					n = 0
					id := rpcRequestID(req[:])
					r.delivered(0, r.opSpan(id), id)
					if r.sz.plant == plantDrop && id == 3 {
						continue
					}
					size := replySize(req[:])
					for i := range size {
						reply[i] = echoByte(req[:], i)
					}
					ws := r.sp.begin(spanWrite, r.opSpan(id), id)
					if err := c.Write(reply[:size]); err != nil {
						r.fail("reply write: %v", err)
					}
					r.sp.end(ws)
				}
			},
			peerClosed: c.Shutdown,
		}
	})
	if err != nil {
		r.fail("listen: %v", err)
	}
	r.opSpans = make([]int32, 2*r.sz.rpcTxns)
	for k := range 2 {
		cl := &rpcClient{id: int32(k), reply: sim.NewCond(r.s), op: -1}
		opn := r.sp.begin(spanOpen, -1, cl.id)
		c, err := r.ep[1].open(r.net.Hosts[0].Addr, port, upcalls{data: func(p []byte) { r.rpcReply(cl, p) }})
		r.sp.end(opn)
		if err != nil {
			r.fail("open: %v", err)
			continue
		}
		cl.c = c
		r.rpcClients = append(r.rpcClients, cl)
		r.cleanup = append(r.cleanup, func() {
			cs := r.sp.begin(spanClose, -1, cl.id)
			if err := c.Close(); err != nil {
				r.fail("close: %v", err)
			}
			r.sp.end(cs)
		})
	}
}

func (r *round) rpcReply(cl *rpcClient, p []byte) {
	r.delivered(1, cl.op, cl.id)
	for i, b := range p {
		if cl.got+i >= cl.want || b != echoByte(cl.req[:], cl.got+i) {
			cl.ok = false
			break
		}
	}
	cl.got += len(p)
	if cl.got >= cl.want {
		cl.reply.Signal()
	}
}

func (r *round) rpcStart() {
	for _, cl := range r.rpcClients {
		r.fork("rpc-client", func() {
			for i := range r.sz.rpcTxns {
				id := int32(int(cl.id)*r.sz.rpcTxns + i)
				cl.want = r.in.rpcRequest(cl.req[:], int(id))
				binary.BigEndian.PutUint32(cl.req[2:6], uint32(id))
				cl.got, cl.ok = 0, true
				cl.op = r.sp.begin(spanOp, -1, id)
				r.opSpans[id] = cl.op
				t0, v0 := time.Now(), r.vnow()
				ws := r.sp.begin(spanWrite, cl.op, id)
				if err := cl.c.Write(cl.req[:]); err != nil {
					r.fail("request write: %v", err)
					return
				}
				r.sp.end(ws)
				for cl.got < cl.want && !r.timedOut {
					cl.reply.Wait()
				}
				if r.timedOut {
					return
				}
				r.sp.end(cl.op)
				r.opDone(time.Since(t0), r.vnow()-v0, cl.ok && cl.got == cl.want)
				r.res.bytes += int64(reqLen + cl.want)
			}
		})
	}
}

// opSpan is op id's span, -1 when untraced or out of range.
func (r *round) opSpan(id int32) int32 {
	if r.sp == nil || id < 0 || int(id) >= len(r.opSpans) {
		return -1
	}
	return r.opSpans[id]
}

// ---- churn: connection lifecycles ------------------------------------

// lifecycle is one churn connection's client-side state.
type lifecycle struct {
	id     int32
	req    []byte
	got    int
	ok     bool
	closed bool
	wake   *sim.Cond
}

func (r *round) churnSetup() {
	err := r.ep[0].listen(port, func(c conn) upcalls {
		var req [reqLen]byte
		n := 0
		return upcalls{
			data: func(p []byte) {
				if n == reqLen {
					r.fail("churn server: %d bytes past the request", len(p))
					return
				}
				n += copy(req[n:], p)
				if n < reqLen {
					return
				}
				id := int32(binary.BigEndian.Uint32(req[:4]))
				r.delivered(0, r.opSpan(id), id)
				ws := r.sp.begin(spanWrite, r.opSpan(id), id)
				if err := c.Write(req[:]); err != nil {
					r.fail("churn reply: %v", err)
				}
				r.sp.end(ws)
				c.Shutdown()
			},
		}
	})
	if err != nil {
		r.fail("listen: %v", err)
	}
	r.opSpans = make([]int32, 2*r.sz.churnConns)
}

func (r *round) churnStart() {
	server := r.net.Hosts[0].Addr
	for k := range 2 {
		host := k + 1
		r.fork("churn-client", func() {
			req := make([]byte, reqLen)
			lc := &lifecycle{wake: sim.NewCond(r.s)}
			u := upcalls{
				data: func(p []byte) {
					r.delivered(host, r.opSpan(lc.id), lc.id)
					for i, b := range p {
						if lc.got+i >= reqLen || b != lc.req[lc.got+i] {
							lc.ok = false
							break
						}
					}
					lc.got += len(p)
					lc.wake.Signal()
				},
				peerClosed: func() { lc.closed = true; lc.wake.Signal() },
			}
			for i := range r.sz.churnConns {
				id := int32(k*r.sz.churnConns + i)
				copy(req, r.in.reqs[int(id)%len(r.in.reqs)])
				binary.BigEndian.PutUint32(req[:4], uint32(id))
				lc.id, lc.req, lc.got, lc.ok, lc.closed = id, req, 0, true, false
				op := r.sp.begin(spanOp, -1, id)
				r.opSpans[id] = op
				t0, v0 := time.Now(), r.vnow()

				opn := r.sp.begin(spanOpen, op, id)
				c, err := r.ep[host].open(server, port, u)
				r.sp.end(opn)
				if err != nil {
					r.fail("open: %v", err)
					continue
				}
				ws := r.sp.begin(spanWrite, op, id)
				if err := c.Write(req); err != nil {
					r.fail("request write: %v", err)
					continue
				}
				r.sp.end(ws)
				for (lc.got < reqLen || !lc.closed) && !r.timedOut {
					lc.wake.Wait()
				}
				if r.timedOut {
					return
				}
				cs := r.sp.begin(spanClose, op, id)
				if err := c.Close(); err != nil {
					r.fail("close: %v", err)
					lc.ok = false
				}
				r.sp.end(cs)
				r.sp.end(op)
				r.opDone(time.Since(t0), r.vnow()-v0, lc.ok && lc.got == reqLen)
				r.res.bytes += 2 * reqLen
			}
		})
	}
}
