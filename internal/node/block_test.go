package node

import (
	"slices"
	"testing"

	"blinktree/internal/base"
)

// TestBlockRegionsCapped: every region of a block node is exactly as
// long as its content and capped there, so an append to one reallocates
// it instead of writing over the region after it. Mutation-checked: with
// each region's capacity running to the end of the block, the append to
// Keys overwrites Vals[0] or Children[0] and the test fails.
func TestBlockRegionsCapped(t *testing.T) {
	leaf := New(true, 3)
	leaf.High = base.PosInfBound()
	copy(leaf.Keys, []base.Key{10, 20, 30})
	copy(leaf.Vals, []base.Value{1, 2, 3})
	in := New(false, 2)
	in.High = base.PosInfBound()
	copy(in.Keys, []base.Key{10, 20})
	copy(in.Children, []base.PageID{4, 5, 6})
	buf := make([]byte, 512)
	if err := Encode(leaf, buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(1, buf)
	if err != nil {
		t.Fatal(err)
	}
	split, _, _ := leaf.InsertLeafPair(25, 9).Split(2)
	sep, err := in.InsertSeparator(15, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*Node{
		"New leaf": leaf, "New internal": in, "Clone": leaf.Clone(), "Decode": decoded,
		"InsertLeafPair": leaf.InsertLeafPair(15, 8), "DeleteLeafPair": leaf.DeleteLeafPair(20),
		"Split": split, "InsertSeparator": sep, "RemoveSeparator": in.RemoveSeparator(0),
	} {
		if cap(n.Keys) != len(n.Keys) || cap(n.Vals) != len(n.Vals) || cap(n.Children) != len(n.Children) {
			t.Errorf("%s: capacities %d/%d/%d for lengths %d/%d/%d", name,
				cap(n.Keys), cap(n.Vals), cap(n.Children), len(n.Keys), len(n.Vals), len(n.Children))
		}
		keys, vals, kids := slices.Clone(n.Keys), slices.Clone(n.Vals), slices.Clone(n.Children)
		_ = append(n.Keys, 99)
		_ = append(n.Vals, 99)
		_ = append(n.Children, 99)
		if !slices.Equal(n.Keys, keys) || !slices.Equal(n.Vals, vals) || !slices.Equal(n.Children, kids) {
			t.Errorf("%s: an append changed the node: keys %v vals %v children %v, was %v %v %v",
				name, n.Keys, n.Vals, n.Children, keys, vals, kids)
		}
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
