package blink

import (
	"sync"
	"testing"
	"time"

	"blinktree/internal/base"
	"blinktree/internal/locks"
	"blinktree/internal/node"
)

// These tests construct, by direct store surgery, the exact
// intermediate states the paper's trickiest arguments are about, and
// verify each recovery path deterministically (stress tests reach them
// only probabilistically).

// buildSmall returns a quiesced two-level tree over an accessible store:
// leaves [0..k), [k..2k) ... with sequential keys 0..n-1.
func buildSurgeryTree(t *testing.T, k, n int) (*Tree, *node.MemStore) {
	t.Helper()
	st := node.NewMemStore()
	tr, err := New(Config{Store: st, Locks: locks.NewTable(), MinPairs: k})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Insert(base.Key(i), base.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCheck(t, tr)
	return tr, st
}

// TestDeletedNodeForwarding (§5.2 case 1): a search that lands on a
// deleted node must follow its outlink to the merge survivor and find
// the key there, without restarting.
func TestDeletedNodeForwarding(t *testing.T) {
	tr, st := buildSurgeryTree(t, 2, 40)
	a, b := mergeFirstLeaves(t, tr, st)
	// The search under test is sent to B by a stale parent read.
	bKey := b.Keys[0]
	mustCheck(t, tr)

	// A reader that reaches B directly (simulating a stale pointer)
	// must find bKey via the outlink.
	got, err := tr.searchFrom(b.ID, mustGet(t, st, a.ID), bKey) // resolved through step
	if err != nil || got != base.Value(bKey) {
		t.Fatalf("forwarded search = (%d, %v)", got, err)
	}
	// And a normal search works too.
	if v, err := tr.Search(bKey); err != nil || v != base.Value(bKey) {
		t.Fatalf("search after merge = (%d,%v)", v, err)
	}
	if tr.Stats().OutlinkHops == 0 {
		t.Log("note: outlink not exercised by the normal path (parent already updated) — covered by the direct searchFrom above")
	}
}

// mergeFirstLeaves thins the first two leaves A and B of tr by ordinary
// deletions, so that both fit in one node (the underfull state
// compression acts on), then merges B into A by surgery: A takes B's
// pairs, the parent loses its separator and pointer to B, and B is
// marked deleted with an outlink to A. It returns A and B as they were
// just before the merge.
func mergeFirstLeaves(t *testing.T, tr *Tree, st node.Store) (a, b *node.Node) {
	t.Helper()
	p, err := st.ReadPrime()
	if err != nil {
		t.Fatal(err)
	}
	a = mustGet(t, st, p.Leftmost[0])
	b = mustGet(t, st, a.Link)
	for _, n := range []*node.Node{a, b} {
		for _, k := range n.Keys[1:] {
			if err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	a = mustGet(t, st, a.ID)
	b = mustGet(t, st, b.ID)

	a2 := a.Clone()
	a2.Keys = append(a2.Keys, b.Keys...)
	a2.Vals = append(a2.Vals, b.Vals...)
	a2.High = b.High
	a2.Link = b.Link
	// The parent of the leftmost leaf is the leftmost node one level up.
	parent := mustGet(t, st, p.Leftmost[1])
	idx := parent.FindChild(a.ID)
	if idx < 0 || parent.Children[idx+1] != b.ID {
		t.Fatalf("surgery precondition failed: %v", parent)
	}
	if err := st.Put(a2); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(parent.RemoveSeparator(idx)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(&node.Node{ID: b.ID, Leaf: true, Deleted: true, OutLink: a.ID, Low: b.Low, High: b.High}); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func mustGet(t *testing.T, st node.Store, id base.PageID) *node.Node {
	t.Helper()
	n, err := st.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestWrongNodeRestart (§5.2 case 2): a process whose key moved LEFT
// (redistribution B→A) and that reads the new B must detect v ≤ low and
// restart rather than miss the key.
func TestWrongNodeRestart(t *testing.T) {
	tr, st := buildSurgeryTree(t, 3, 60)
	p, _ := st.ReadPrime()
	a := mustGet(t, st, p.Leftmost[0])
	b := mustGet(t, st, a.Link)
	movedKey := b.Keys[0] // will move left into A

	// Redistribute B→A manually: A gains B's first pair.
	a2 := a.Clone()
	a2.Keys = append(a2.Keys, b.Keys[0])
	a2.Vals = append(a2.Vals, b.Vals[0])
	newSep := b.Keys[0]
	a2.High = base.FiniteBound(newSep)
	b2 := b.Clone()
	b2.Keys = b2.Keys[1:]
	b2.Vals = b2.Vals[1:]
	b2.Low = base.FiniteBound(newSep)
	parent := mustGet(t, st, p.Leftmost[1])
	idx := parent.FindChild(a.ID)
	if idx < 0 {
		t.Fatalf("surgery precondition failed: %v", parent)
	}
	f2 := parent.Clone()
	f2.Keys[idx] = newSep
	// Paper's write order: gaining child, parent, other child.
	if err := st.Put(a2); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(f2); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(b2); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, tr)

	// A reader that (with a stale parent image) lands on the new B in
	// search of movedKey must restart — step() signals it — and the
	// public Search must still find the key.
	if _, err := tr.step(b.ID, movedKey); !isRestart(err) {
		t.Fatalf("step on wrong node = %v, want restart signal", err)
	}
	if v, err := tr.Search(movedKey); err != nil || v != base.Value(movedKey) {
		t.Fatalf("search after redistribution = (%d,%v)", v, err)
	}
}

// TestPrimeBlockLagOnRootSplit (§3.3): a process that must insert at a
// level the prime block does not advertise yet (a new root's creation
// is mid-flight) waits rather than failing. We simulate the lag by
// holding the root's lock while another insertion needs to split it.
func TestPrimeBlockLagOnRootSplit(t *testing.T) {
	st := node.NewMemStore()
	lt := locks.NewTable()
	tr, err := New(Config{Store: st, Locks: lt, MinPairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the root leaf to capacity.
	for i := 0; i < 4; i++ {
		if err := tr.Insert(base.Key(i*10), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Hold the root lock, forcing the next insert (which must split the
	// root) to block; release after a delay. The insert must complete.
	p, _ := st.ReadPrime()
	lt.Lock(p.Root)
	done := make(chan error, 1)
	go func() { done <- tr.Insert(100, 1) }()
	select {
	case err := <-done:
		t.Fatalf("insert finished through a held root lock: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	lt.Unlock(p.Root)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("insert never completed after root lock release")
	}
	mustCheck(t, tr)
	if tr.Height() != 2 {
		t.Fatalf("height = %d, want 2 after root split", tr.Height())
	}
}

// TestWaitForLevelWakesUp: a pending separator for a level that does
// not exist yet must wait until a concurrent root split publishes it
// (the unlikely scenario of §3.3 made deterministic).
func TestWaitForLevelWakesUp(t *testing.T) {
	st := node.NewMemStore()
	tr, err := New(Config{Store: st, MinPairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = tr.Insert(1, 1)

	// Ask for level 5 directly; publish it after a delay.
	var wg sync.WaitGroup
	wg.Add(1)
	var got base.PageID
	var werr error
	go func() {
		defer wg.Done()
		got, werr = tr.waitForLevel(5)
	}()
	time.Sleep(30 * time.Millisecond)
	p, _ := st.ReadPrime()
	p.Levels = 6
	p.Leftmost = append(p.Leftmost, 101, 102, 103, 104, 105)
	if err := st.WritePrime(p); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if werr != nil || got != 105 {
		t.Fatalf("waitForLevel = (%d, %v), want 105", got, werr)
	}
	if tr.Stats().LevelWaits == 0 {
		t.Fatal("no level waits recorded")
	}
}

// TestCondWriteIntoDeletedLeafRecovers: a conditional write whose
// target leaf is merged away between descent and lock must follow the
// outlink (§5.2 case 1) exactly like insertions and deletions do, and
// must still apply its decision against the survivor's state.
func TestCondWriteIntoDeletedLeafRecovers(t *testing.T) {
	tr, st := buildSurgeryTree(t, 2, 20)
	a, b := mergeFirstLeaves(t, tr, st)
	survivorKey := b.Keys[0]

	// Drive condStep directly at the deleted node: it must redirect
	// through the outlink without applying the probe.
	h := locks.NewHolder(tr.lt)
	probed := false
	var pend pending
	var stack []base.PageID
	status, next, _, err := tr.condStep(h, survivorKey, func(base.Value, bool) condOutcome {
		probed = true
		return condOutcome{action: condPut, value: 123}
	}, b.ID, &stack, &pend)
	if err != nil && !isRestart(err) {
		t.Fatalf("condStep on deleted node: %v", err)
	}
	if probed {
		t.Fatal("probe ran against a deleted node")
	}
	if err == nil {
		if status != condChase || next != a.ID {
			t.Fatalf("condStep = (%v, %d), want chase to outlink target %d", status, next, a.ID)
		}
	}
	h.UnlockAll()

	// The public path applies against the survivor: the upsert must see
	// the merged-in pair and replace its value.
	old, existed, err := tr.Upsert(survivorKey, 777)
	if err != nil || !existed || old != base.Value(survivorKey) {
		t.Fatalf("upsert after merge = (%d, %v, %v)", old, existed, err)
	}
	if v, err := tr.Search(survivorKey); err != nil || v != 777 {
		t.Fatalf("search after upsert = (%d, %v)", v, err)
	}
	mustCheck(t, tr)
}

// TestInsertIntoDeletedLeafRecovers: an insert whose target leaf is
// merged away between descent and lock must follow the outlink and
// succeed.
func TestInsertIntoDeletedLeafRecovers(t *testing.T) {
	tr, st := buildSurgeryTree(t, 2, 20)
	a, b := mergeFirstLeaves(t, tr, st)

	// Drive condStep with an insertion's probe directly at the deleted
	// node: it must redirect through the outlink without inserting.
	h := locks.NewHolder(tr.lt)
	probed := false
	var pend pending
	var stack []base.PageID
	status, next, _, err := tr.condStep(h, b.Keys[0]+1000, func(_ base.Value, present bool) condOutcome {
		probed = true
		if present {
			return condOutcome{}
		}
		return condOutcome{action: condPut, value: 9}
	}, b.ID, &stack, &pend)
	if err != nil && !isRestart(err) {
		t.Fatalf("condStep on deleted node: %v", err)
	}
	if probed {
		t.Fatal("insert probed a deleted node")
	}
	if err == nil && (status != condChase || next != a.ID) {
		t.Fatalf("condStep = (%v, %d), want chase to outlink target %d", status, next, a.ID)
	}
	h.UnlockAll()

	// The public path works end to end.
	if err := tr.Insert(999999, 7); err != nil {
		t.Fatal(err)
	}
	if v, err := tr.Search(999999); err != nil || v != 7 {
		t.Fatalf("end-to-end insert after merge = (%d,%v)", v, err)
	}
	mustCheck(t, tr)
}
