package main

import "math/rand/v2"

// Shapes of the generated inputs.
const (
	reqLen      = 64       // every rpc and churn request is 64 bytes
	minReply    = 32       // rpc reply sizes span [minReply, maxReply]
	maxReply    = 1460     // one Ethernet-MSS segment
	blockBytes  = 16 << 10 // bulk and lossy: one op is a block this long
	requestPool = 256      // distinct request bodies per run
)

// sizes is how much work one round of each workload does. A round is
// the unit the benchmark repeats until its time is up; medians are
// taken over rounds.
type sizes struct {
	bulkBytes  int // bulk: payload per transfer
	rpcTxns    int // rpc: transactions per connection
	churnConns int // churn: lifecycles per client host
	lossyBytes int // lossy: payload per flow

	// plant injects one known fault, so the benchmark's tests can show
	// that its output checks catch it.
	plant plant
}

type plant int

const (
	plantNone    plant = iota
	plantCorrupt       // bulk and lossy senders send one flipped payload byte
	plantDrop          // the rpc server never answers request 3
)

// fullSizes make one Fox round take a few tens of milliseconds of wall
// time, so a 10 s run holds dozens of rounds per arm.
var fullSizes = sizes{
	bulkBytes:  4 << 20,
	rpcTxns:    400,
	churnConns: 150,
	lossyBytes: 2 << 20,
}

// inputs is everything a run generates from its seed. The stack sees
// only these bytes and sizes; the benchmark keeps them to verify what
// the stack delivers.
type inputs struct {
	seed     uint64
	bulk     []byte    // bulk payload
	flows    [2][]byte // lossy payloads, one per sending host
	reqs     [][]byte  // request bodies (rpc, churn)
	replies  []int     // rpc reply sizes, one per transaction of a round
	wireSeed uint64    // drives the lossy workload's i.i.d. frame loss
}

func genInputs(seed uint64, sz sizes) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x666f786e6574)) // "foxnet"
	fill := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return b
	}
	in := &inputs{seed: seed}
	in.bulk = fill(sz.bulkBytes)
	in.flows[0] = fill(sz.lossyBytes)
	in.flows[1] = fill(sz.lossyBytes)
	for range requestPool {
		in.reqs = append(in.reqs, fill(reqLen))
	}
	// Every seed gets the same reply sizes, evenly spread over
	// [minReply, maxReply], one per transaction of a round; the seed
	// decides which transaction gets which. Virtual time per round, and
	// with it the number of timers pending at once, then barely depends
	// on the seed.
	n := max(2*sz.rpcTxns, 2)
	for i := range n {
		in.replies = append(in.replies, minReply+i*(maxReply-minReply)/(n-1))
	}
	rng.Shuffle(n, func(i, j int) { in.replies[i], in.replies[j] = in.replies[j], in.replies[i] })
	in.wireSeed = rng.Uint64()
	return in
}

// rpcRequest builds transaction k's request into dst: a pooled seeded
// body whose first two bytes carry the reply size the server must send.
func (in *inputs) rpcRequest(dst []byte, k int) int {
	copy(dst, in.reqs[k%len(in.reqs)])
	n := in.replies[k%len(in.replies)]
	dst[0], dst[1] = byte(n>>8), byte(n)
	return n
}

// replySize decodes the reply size an rpc request asks for.
func replySize(req []byte) int { return int(req[0])<<8 | int(req[1]) }

// echoByte is byte i of the reply to req: the request repeated.
func echoByte(req []byte, i int) byte { return req[i%reqLen] }
