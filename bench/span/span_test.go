package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	// op [0,100) ⊃ call [10,90) ⊃ {get [20,30), get [25,45) (overlaps),
	// put [80,95) (runs past its parent)}; orphan's parent is missing.
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 90},
		{ID: 3, Parent: 2, Start: 20, End: 30},
		{ID: 4, Parent: 2, Start: 25, End: 45},
		{ID: 5, Parent: 2, Start: 80, End: 95},
		{ID: 6, Parent: 99, Start: 0, End: 7},
	}
	want := []int64{20, 80 - 25 - 10, 10, 20, 15, 7}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
}

func TestLedgerSelfTimes(t *testing.T) {
	get := &Rung{Name: "node.memstore_get", NS: 30, Times: 5}
	lock := &Rung{Name: "locks.lock_unlock", NS: 60, Times: 1}
	up := &Rung{Name: "blink.upsert", NS: 400, Times: 1, Calls: []*Rung{get, lock}}
	eng := &Rung{Name: "shard.engine_upsert", NS: 450, Times: 1, Calls: []*Rung{up}}
	top := &Rung{Name: "client.rtt_d1", NS: 30000, Times: 1, Calls: []*Rung{eng}}
	if s := up.Self(); s != 400-5*30-60 {
		t.Errorf("blink.upsert self %v", s)
	}
	if s := top.Self(); s != 30000-450 {
		t.Errorf("top self %v", s)
	}
	var total float64
	var names []string
	top.Walk(func(r *Rung, depth int, perTop float64) {
		total += r.Self() * perTop
		names = append(names, strings.Repeat(" ", depth)+r.Name)
	})
	if total != top.NS {
		t.Errorf("self times sum to %v, the top rung costs %v", total, top.NS)
	}
	if len(names) != 5 || names[3] != "   node.memstore_get" {
		t.Errorf("walk order %q", names)
	}
	// Everything but the two primitives' own cost is unexplained.
	if got, want := top.Residual(), top.NS-5*get.NS-lock.NS; got != want {
		t.Errorf("residual %v, want %v", got, want)
	}
}

func TestRingKeepsTheLastSpans(t *testing.T) {
	r := NewRing(3, 4)
	for i := 0; i < 6; i++ {
		r.Add(1, 0, uint64(i), int64(i), int64(i+1), 1)
	}
	got := r.Spans()
	if r.Added() != 6 || len(got) != 4 || got[0].OpID != 2 || got[3].OpID != 5 {
		t.Fatalf("added %d kept %+v", r.Added(), got)
	}
	if got[0].ID>>48 != 3 || got[0].ID == got[1].ID {
		t.Errorf("ids %x %x", got[0].ID, got[1].ID)
	}
	var buf bytes.Buffer
	n, err := WriteJSONL(&buf, []Kind{{}, {Name: "blinktree.search", Layer: "blinktree"}}, got)
	if err != nil || n != 4 {
		t.Fatal(n, err)
	}
	var l map[string]any
	if err := json.Unmarshal(bytes.SplitN(buf.Bytes(), []byte("\n"), 2)[0], &l); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"name", "layer", "worker", "op_id", "parent", "start_ns", "end_ns"} {
		if _, ok := l[k]; !ok {
			t.Errorf("span line lacks %q: %v", k, l)
		}
	}
}
