// Package flightseal exercises the analyzer's observer-package rule: it
// stands for internal/flight/seal, where EVERY function — not just
// those in observe.go — is a journal observer. None may reach the
// executor's door (enqueue/run/perform) or a synchronous module.
package flightseal

type conn struct {
	toDo []int
	segs []byte
}

// The executor boundary, as the stack under observation declares it.
func (c *conn) enqueue(a int) { c.toDo = append(c.toDo, a) }

func (c *conn) run() {
	for len(c.toDo) > 0 {
		c.toDo = c.toDo[1:]
	}
}

// sealBatch is a compliant observer: it reads, hashes, and stores.
func sealBatch(c *conn, body []byte) {
	c.segs = append(c.segs, body...)
}

// badSealKick drives the executor from the seal layer.
func badSealKick(c *conn) {
	c.run() // want "badSealKick is a journal observer \\(in an observer package\\) and calls run"
}

// badSealEnqueue enqueues from the seal layer, via a helper — the walk
// descends and reports at the offending call site.
func badSealEnqueue(c *conn) {
	helper(c)
}

func helper(c *conn) {
	c.enqueue(1) // want "helper is a journal observer \\(in an observer package\\) and calls enqueue"
}

// badSealSync enters a synchronous module (declared in this package's
// receive.go) from the seal layer.
func badSealSync(c *conn) {
	c.receiveSegment() // want "badSealSync is a journal observer \\(in an observer package\\) and calls receiveSegment, declared in receive.go"
}
