// Package span is the benchmark's tracing: spans recorded around the
// benchmark's own calls into each layer (spans inside the program are a
// later change), the self-time arithmetic over them, and the per-op
// cost ledger built from the ladder rungs.
package span

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
)

// Kind names what a span wraps and the layer that call enters.
type Kind struct{ Name, Layer string }

// Span is one recorded interval. Spans of one operation share OpID; a
// span's Parent is the ID of the span that caused it, 0 for none. Calls
// is how many calls of the named function the interval covers: 1 for a
// workload call, the loop count for a ladder rung.
type Span struct {
	ID, Parent uint64
	OpID       uint64
	Start, End int64 // ns since the run's origin
	Calls      uint32
	Kind       uint16 // index into the recorder's kinds
	Worker     uint16
}

// Ring keeps the last cap spans one worker recorded. Every span pays the
// same cost whether or not an older one is overwritten, so the tracing
// overhead does not change when the ring wraps. One goroutine owns a Ring.
type Ring struct {
	buf    []Span
	next   uint64 // spans ever added
	worker uint16
}

// NewRing returns worker's ring of the given capacity.
func NewRing(worker, capacity int) *Ring {
	return &Ring{buf: make([]Span, capacity), worker: uint16(worker)}
}

// Add records one span and returns its ID, unique across rings.
func (r *Ring) Add(kind uint16, parent, opID uint64, start, end int64, calls uint32) uint64 {
	id := uint64(r.worker)<<48 | (r.next + 1)
	r.buf[r.next%uint64(len(r.buf))] = Span{
		ID: id, Parent: parent, OpID: opID, Start: start, End: end,
		Calls: calls, Kind: kind, Worker: r.worker,
	}
	r.next++
	return id
}

// Added is the number of spans ever recorded, kept or overwritten.
func (r *Ring) Added() uint64 { return r.next }

// Spans returns the kept spans, oldest first.
func (r *Ring) Spans() []Span {
	n := uint64(len(r.buf))
	if r.next <= n {
		return r.buf[:r.next]
	}
	cut := r.next % n
	return append(append(make([]Span, 0, n), r.buf[cut:]...), r.buf[:cut]...)
}

// SelfTimes returns, for each span, its duration minus the part of its
// interval that its direct children cover. Overlapping children (parallel
// parts) are counted once; a child reaching outside its parent is clipped;
// a child whose parent is not in spans is ignored.
func SelfTimes(spans []Span) []int64 {
	at := make(map[uint64]int, len(spans))
	for i, s := range spans {
		at[s.ID] = i
	}
	kids := make(map[int][]int)
	for i, s := range spans {
		if p, ok := at[s.Parent]; ok && s.Parent != 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered := s.Start // everything before it is already subtracted
		for _, k := range ks {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

type line struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Worker  uint16 `json:"worker"`
	OpID    uint64 `json:"op_id"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Calls   uint32 `json:"calls"`
}

// WriteJSONL writes one JSON object per span and returns how many it
// wrote.
func WriteJSONL(w io.Writer, kinds []Kind, spans []Span) (int, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, s := range spans {
		k := kinds[s.Kind]
		if err := enc.Encode(line{k.Name, k.Layer, s.Worker, s.OpID, s.ID, s.Parent, s.Start, s.End, s.Calls}); err != nil {
			return i, err
		}
	}
	return len(spans), bw.Flush()
}

// Rung is one row of the cost ledger: a function measured on its own,
// its cost per call, and the rungs it calls with how many times one
// call of it calls each.
type Rung struct {
	Name  string
	NS    float64
	Times float64 // calls per call of the parent rung; 1 at the top
	Calls []*Rung
}

// Self is the rung's cost minus what the rungs beneath it explain. It
// is negative when the rungs beneath, measured alone, cost more than
// they do inside their caller (a batch amortises, a cache is warmer).
func (r *Rung) Self() float64 {
	self := r.NS
	for _, c := range r.Calls {
		self -= c.Times * c.NS
	}
	return self
}

// Walk visits the ledger depth first, giving each rung's depth and how
// many times one top-level call runs it.
func (r *Rung) Walk(fn func(rung *Rung, depth int, perTop float64)) {
	var walk func(*Rung, int, float64)
	walk = func(n *Rung, d int, mult float64) {
		fn(n, d, mult)
		for _, c := range n.Calls {
			walk(c, d+1, mult*c.Times)
		}
	}
	walk(r, 0, 1)
}

// Residual is the part of the rung's cost that no primitive rung names:
// the self time of r and of every rung beneath it that has rungs of its
// own, each weighted by how often one call of r runs it. The rungs
// without rungs beneath them are the primitives; their whole cost counts
// as named.
func (r *Rung) Residual() float64 {
	var sum float64
	r.Walk(func(n *Rung, _ int, perTop float64) {
		if len(n.Calls) > 0 {
			sum += perTop * n.Self()
		}
	})
	return sum
}
