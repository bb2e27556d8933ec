package node

import (
	"math/rand"
	"slices"
	"testing"

	"blinktree/internal/base"
)

// The edits as they were before they built their result at its final
// size: Clone, then edit the copy in place. They are the reference the
// single-pass versions must agree with.

func refInsertLeafPair(n *Node, k base.Key, v base.Value) *Node {
	i := findKey(n.Keys, k)
	c := n.Clone()
	c.Keys = slices.Insert(c.Keys, i, k)
	c.Vals = slices.Insert(c.Vals, i, v)
	return c
}

func refDeleteLeafPair(n *Node, k base.Key) *Node {
	i := findKey(n.Keys, k)
	c := n.Clone()
	c.Keys = slices.Delete(c.Keys, i, i+1)
	c.Vals = slices.Delete(c.Vals, i, i+1)
	return c
}

func refInsertSeparator(n *Node, sep base.Key, child base.PageID) *Node {
	i := findKey(n.Keys, sep)
	c := n.Clone()
	c.Keys = slices.Insert(c.Keys, i, sep)
	c.Children = slices.Insert(c.Children, i+1, child)
	return c
}

func refRemoveSeparator(n *Node, i int) *Node {
	c := n.Clone()
	c.Keys = slices.Delete(c.Keys, i, i+1)
	c.Children = slices.Delete(c.Children, i+1, i+2)
	return c
}

// sameNode compares by content: an empty slice and a nil one are the
// same node.
func sameNode(a, b *Node) bool {
	return a.ID == b.ID && a.Leaf == b.Leaf && a.Root == b.Root && a.Deleted == b.Deleted &&
		a.OutLink == b.OutLink && a.Link == b.Link && a.Low.Equal(b.Low) && a.High.Equal(b.High) &&
		slices.Equal(a.Keys, b.Keys) && slices.Equal(a.Vals, b.Vals) && slices.Equal(a.Children, b.Children)
}

// randomNode returns a valid node of up to 40 pairs with even keys (so
// that odd keys are absent) and random header fields.
func randomNode(rng *rand.Rand, leaf bool) *Node {
	n := &Node{
		ID: base.PageID(1 + rng.Intn(1000)), Leaf: leaf, Root: rng.Intn(4) == 0,
		Low: base.NegInfBound(), High: base.PosInfBound(), Link: base.PageID(rng.Intn(1000)),
	}
	pairs := rng.Intn(41)
	k := base.Key(2 * rng.Intn(100))
	if pairs > 0 && rng.Intn(2) == 0 {
		n.Low = base.FiniteBound(k)
	}
	for i := 0; i < pairs; i++ {
		k += base.Key(2 + 2*rng.Intn(50))
		n.Keys = append(n.Keys, k)
		if leaf {
			n.Vals = append(n.Vals, base.Value(rng.Uint64()))
		} else {
			n.Children = append(n.Children, base.PageID(1+rng.Intn(1<<20)))
		}
	}
	if !leaf {
		n.Children = append(n.Children, base.PageID(1+rng.Intn(1<<20)))
	}
	if rng.Intn(2) == 0 {
		n.High = base.FiniteBound(k + 2)
	}
	return n
}

// absentKey returns an odd key somewhere in or around n's key range.
func absentKey(rng *rand.Rand, n *Node) base.Key {
	hi := 10
	if len(n.Keys) > 0 {
		hi = int(n.Keys[len(n.Keys)-1]) + 10
	}
	return base.Key(2*rng.Intn(hi/2+1) + 1)
}

// TestEditsMatchCloneThenEdit: every edit returns what Clone-then-edit
// returned, leaves its receiver as it was, and validates.
func TestEditsMatchCloneThenEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	check := func(what string, before, orig, got, want *Node) {
		t.Helper()
		if !sameNode(got, want) {
			t.Fatalf("%s of %v:\n got  %v vals=%v children=%v\n want %v vals=%v children=%v",
				what, orig, got, got.Vals, got.Children, want, want.Vals, want.Children)
		}
		if !sameNode(before, orig) {
			t.Fatalf("%s changed its receiver: %v, was %v", what, orig, before)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for iter := 0; iter < 4000; iter++ {
		leaf := randomNode(rng, true)
		before := leaf.Clone()
		k, v := absentKey(rng, leaf), base.Value(rng.Uint64())
		if leaf.Low.Less(k) && leaf.High.GreaterEqual(k) {
			check("InsertLeafPair", before, leaf, leaf.InsertLeafPair(k, v), refInsertLeafPair(leaf, k, v))
		}
		if leaf.DeleteLeafPair(k) != nil {
			t.Fatalf("DeleteLeafPair of absent key %d returned a node", k)
		}
		if len(leaf.Keys) > 0 {
			k := leaf.Keys[rng.Intn(len(leaf.Keys))]
			check("DeleteLeafPair", before, leaf, leaf.DeleteLeafPair(k), refDeleteLeafPair(leaf, k))
		}

		in := randomNode(rng, false)
		before = in.Clone()
		sep, child := absentKey(rng, in), base.PageID(1+rng.Intn(1<<20))
		if in.Low.Less(sep) && in.High.GreaterEqual(sep) {
			got, err := in.InsertSeparator(sep, child)
			if err != nil {
				t.Fatal(err)
			}
			check("InsertSeparator", before, in, got, refInsertSeparator(in, sep, child))
		}
		if len(in.Keys) > 0 {
			if _, err := in.InsertSeparator(in.Keys[0], child); err == nil {
				t.Fatal("InsertSeparator of a present separator did not fail")
			}
			i := rng.Intn(len(in.Keys))
			check("RemoveSeparator", before, in, in.RemoveSeparator(i), refRemoveSeparator(in, i))
		}
	}
}

// TestEditAllocs: an edit allocates its result once, at its final size:
// one block holding the header, the keys and the values or children. A
// split allocates its two halves.
func TestEditAllocs(t *testing.T) {
	leaf := &Node{ID: 1, Leaf: true, Low: base.NegInfBound(), High: base.PosInfBound()}
	in := &Node{ID: 2, Low: base.NegInfBound(), High: base.PosInfBound(), Children: []base.PageID{1}}
	for i := 1; i <= 22; i++ { // the fill the benchmark's leaves have
		leaf.Keys = append(leaf.Keys, base.Key(2*i))
		leaf.Vals = append(leaf.Vals, base.Value(i))
		in.Keys = append(in.Keys, base.Key(2*i))
		in.Children = append(in.Children, base.PageID(i+1))
	}
	var sink *Node
	for _, c := range []struct {
		name string
		want float64
		edit func()
	}{
		{"Clone", 1, func() { sink = leaf.Clone() }},
		{"InsertLeafPair", 1, func() { sink = leaf.InsertLeafPair(21, 1) }},
		{"DeleteLeafPair", 1, func() { sink = leaf.DeleteLeafPair(20) }},
		{"InsertSeparator", 1, func() { sink, _ = in.InsertSeparator(21, 99) }},
		{"RemoveSeparator", 1, func() { sink = in.RemoveSeparator(5) }},
		{"Split", 2, func() { sink, _, _ = leaf.Split(99) }},
	} {
		if got := testing.AllocsPerRun(200, c.edit); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
	_ = sink
}
