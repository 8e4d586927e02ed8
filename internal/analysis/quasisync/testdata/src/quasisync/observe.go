package quasisync

// This file stands for the observer hooks: functions declared in
// observe.go — the flight recorder's and the telemetry plane's — are
// observers of the executor. They may read anything, but driving the
// machine they watch — the executor boundary or the synchronous
// modules — is a violation.

// recEnqueue is a compliant observer: it only reads connection state.
func (c *Conn) recEnqueue(a action) {
	_ = c.toDo
	_ = a
}

// badRecEnqueue drives the executor from an observer.
func (c *Conn) badRecEnqueue(a action) {
	c.enqueue(a) // want "badRecEnqueue is a journal observer .* calls enqueue"
}

// badRecDrain kicks the drain from an observer.
func (c *Conn) badRecDrain() {
	c.run() // want "badRecDrain is a journal observer .* calls run"
}

// badRecSync enters a synchronous module directly.
func (c *Conn) badRecSync() {
	c.sendModule() // want "badRecSync is a journal observer .* calls sendModule, declared in send.go"
}

// badRecDeep reaches the Receive module through an observe.go-local
// helper; the walk descends and reports at the offending call site.
func (c *Conn) badRecDeep() {
	c.recHelper()
}

func (c *Conn) recHelper() {
	c.receiveSegment() // want "recHelper is a journal observer .* calls receiveSegment, declared in receive.go"
}

// The telemetry hooks share the file and the rule: they read the TCB
// and mutate telemetry atomics, and must never drive the machine they
// measure.

// telBeg is a compliant observer: it only reads connection state.
func (c *Conn) telBeg() int {
	return len(c.toDo)
}

// badTelKick kicks the drain from a telemetry hook.
func (c *Conn) badTelKick() {
	c.run() // want "badTelKick is a journal observer \\(declared in observe.go\\) and calls run"
}

// badTelSample enqueues from the sampler.
func (c *Conn) badTelSample(a action) {
	c.enqueue(a) // want "badTelSample is a journal observer .* calls enqueue"
}

// badTelSync enters a synchronous module from a hook, via a helper —
// the walk descends and reports at the offending call site.
func (c *Conn) badTelSync() {
	c.telHelper()
}

func (c *Conn) telHelper() {
	c.receiveSegment() // want "telHelper is a journal observer .* calls receiveSegment, declared in receive.go"
}
