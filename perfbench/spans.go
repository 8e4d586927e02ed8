package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span names. A root span is one op; its children are the calls into
// the stack the op made and the deliveries it caused.
const (
	spanOp      = "op"      // one transfer, transaction or lifecycle
	spanOpen    = "open"    // TCP.Open
	spanWrite   = "write"   // Conn.Write
	spanClose   = "close"   // Conn.Close
	spanDeliver = "deliver" // wire tap of a data frame → its Data upcall
)

// span is one interval of a traced round, in wall nanoseconds since the
// round began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the parent span, -1 for a root
	ID     int32  `json:"id"`     // connection or request id
}

// spans is a traced round's in-memory span log, preallocated so that
// recording a span does not allocate. A nil *spans records nothing.
type spans struct {
	t0      time.Time
	buf     []span
	dropped int
}

func newSpans(capacity int) *spans { return &spans{t0: time.Now(), buf: make([]span, 0, capacity)} }

func (sp *spans) now() int64 {
	if sp == nil {
		return 0
	}
	return int64(time.Since(sp.t0))
}

// begin opens a span and returns its index, or -1 when not recording.
func (sp *spans) begin(name string, parent, id int32) int32 {
	if sp == nil {
		return -1
	}
	return sp.add(name, sp.now(), 0, parent, id)
}

// end closes the span begin returned.
func (sp *spans) end(i int32) {
	if sp == nil || i < 0 {
		return
	}
	sp.buf[i].End = sp.now()
}

func (sp *spans) add(name string, start, end int64, parent, id int32) int32 {
	if sp == nil {
		return -1
	}
	if len(sp.buf) == cap(sp.buf) {
		sp.dropped++
		return -1
	}
	sp.buf = append(sp.buf, span{Name: name, Start: start, End: end, Parent: parent, ID: id})
	return int32(len(sp.buf) - 1)
}

// durations returns the duration of every closed span with the given
// name, in microseconds.
func (sp *spans) durations(name string) []float64 {
	var out []float64
	for _, s := range sp.buf {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, for every op span, its duration minus the part of
// it that its children cover, in microseconds.
func (sp *spans) selfTimes() []float64 {
	type iv struct{ a, b int64 }
	kids := map[int32][]iv{}
	for _, s := range sp.buf {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	var out []float64
	for i, s := range sp.buf {
		if s.Name != spanOp || s.End < s.Start {
			continue
		}
		ch := kids[int32(i)]
		sort.Slice(ch, func(x, y int) bool { return ch[x].a < ch[y].a })
		covered, curA, curB := int64(0), int64(0), int64(-1)
		for _, c := range ch {
			a, b := max(c.a, s.Start), min(c.b, s.End)
			if b <= a {
				continue
			}
			if a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = a, b
			} else if b > curB {
				curB = b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		out = append(out, float64(s.End-s.Start-covered)/1e3)
	}
	return out
}

// writeFile writes the spans as JSON lines.
func (sp *spans) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range sp.buf {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
