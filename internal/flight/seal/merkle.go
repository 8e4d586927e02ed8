// Package seal turns the flight journal into a tamper-evident audit log
// at production scale. Records are batched into fixed-size groups, each
// batch is committed as the Merkle root of its records' SHA-256 leaf
// hashes, and every root is chained into a sealed hash chain: each seal
// record covers the previous seal's hash, so rewriting any record —
// even in a long-rotated segment — breaks every seal after it. Segment
// rotation bounds file sizes, and compaction can drop the bulky TCB
// deltas from cold segments while keeping each record's leaf hash (and
// therefore the whole chain) verifiable.
//
// The seal layer is pure observation: it hashes and frames what the
// Recorder already emitted and never reaches back into the executor.
// The quasisync analyzer machine-checks that property for this package,
// exactly as it does for the observe.go hooks in internal/tcp.
package seal

import (
	"crypto/sha256"
	"encoding/binary"
)

// fold computes the Merkle root of leaves using scratch (cap >= number
// of leaves) as working space, so steady-state sealing allocates
// nothing. Pairs hash as SHA256(left || right); an odd node is promoted
// unchanged to the next level. len(leaves) must be > 0.
//
//foxvet:hotpath
func fold(leaves, scratch [][32]byte) [32]byte {
	n := copy(scratch, leaves)
	var pair [64]byte
	for n > 1 {
		m := 0
		for i := 0; i < n; i += 2 {
			if i+1 < n {
				copy(pair[:32], scratch[i][:])
				copy(pair[32:], scratch[i+1][:])
				scratch[m] = sha256.Sum256(pair[:])
			} else {
				scratch[m] = scratch[i]
			}
			m++
		}
		n = m
	}
	return scratch[0]
}

// foldRoot is fold for cold paths that don't carry scratch space.
func foldRoot(leaves [][32]byte) [32]byte {
	scratch := make([][32]byte, len(leaves))
	return fold(leaves, scratch)
}

// chainHash computes a seal's chain hash over the previous seal's hash,
// this batch's Merkle root, and the batch coordinates. The coordinates
// are bound into the hash so a tampered journal cannot renumber or
// re-partition batches without breaking the chain.
//
//foxvet:hotpath
func chainHash(prev, root [32]byte, batch, first uint64, n int) [32]byte {
	var pre [88]byte
	copy(pre[:32], prev[:])
	copy(pre[32:64], root[:])
	binary.BigEndian.PutUint64(pre[64:72], batch)
	binary.BigEndian.PutUint64(pre[72:80], first)
	binary.BigEndian.PutUint64(pre[80:88], uint64(n))
	return sha256.Sum256(pre[:])
}

// appendHex appends the lowercase hex of b to dst. Callers keep dst in
// a reused buffer so steady-state appends don't allocate.
func appendHex(dst []byte, b []byte) []byte {
	const hexdigits = "0123456789abcdef"
	for _, x := range b {
		dst = append(dst, hexdigits[x>>4], hexdigits[x&0xf])
	}
	return dst
}

// hexOf renders a hash as a lowercase hex string (cold paths only).
func hexOf(h [32]byte) string {
	return string(appendHex(make([]byte, 0, 64), h[:]))
}

// parseHex decodes a 64-digit lowercase hex hash.
func parseHex(s string) (h [32]byte, ok bool) {
	if len(s) != 64 {
		return h, false
	}
	for i := 0; i < 32; i++ {
		hi, ok1 := nibble(s[2*i])
		lo, ok2 := nibble(s[2*i+1])
		if !ok1 || !ok2 {
			return h, false
		}
		h[i] = hi<<4 | lo
	}
	return h, true
}

func nibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}
