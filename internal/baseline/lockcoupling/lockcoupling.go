// Package lockcoupling implements the classical top-down alternative
// the paper contrasts with (the [2,3,7,12] family): a B⁺-tree where
// every process — including readers — couples locks down the tree:
// hold the parent's lock until the child's lock is granted. Writers
// take exclusive locks and preemptively split (inserts) or refill
// (deletes) children on the way down so a safe node is never revisited.
//
// Compared with B-link algorithms, readers pay for locks, writers
// exclude readers along their whole path window, and every operation
// holds two locks at once — the costs TestLockFootprintSeparation
// asserts and the gate's baseline.lockcoupling_ops_per_s rung measures.
package lockcoupling

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"blinktree/internal/base"
	"blinktree/internal/locks"
)

// DefaultDegree matches btree's default minimum degree.
const DefaultDegree = 16

// Tree is a lock-coupling B⁺-tree of minimum degree k (node keys in
// [k−1, 2k−1]), safe for concurrent use.
type Tree struct {
	k int

	// meta guards the root pointer. It is held only long enough to
	// latch the root node — the "lock the anchor, then the root, then
	// release the anchor" discipline.
	meta sync.RWMutex
	root *cnode

	length atomic.Int64
	closed atomic.Bool

	searches, inserts, deletes atomic.Uint64
	conds                      atomic.Uint64 // conditional writes
	splits, merges, borrows    atomic.Uint64

	searchFP, insertFP, deleteFP locks.FootprintStats
}

type cnode struct {
	mu       sync.RWMutex
	leaf     bool
	keys     []base.Key
	vals     []base.Value
	children []*cnode
	next     *cnode
}

// New returns an empty tree of minimum degree k (≥ 2).
func New(k int) (*Tree, error) {
	if k < 2 {
		return nil, fmt.Errorf("lockcoupling: k %d < 2", k)
	}
	return &Tree{k: k, root: &cnode{leaf: true}}, nil
}

func (t *Tree) maxKeys() int { return 2*t.k - 1 }
func (t *Tree) minKeys() int { return t.k - 1 }

// Len returns the number of stored pairs.
func (t *Tree) Len() int { return int(t.length.Load()) }

// Close marks the tree closed.
func (t *Tree) Close() error {
	t.closed.Store(true)
	return nil
}

func (t *Tree) checkOpen() error {
	if t.closed.Load() {
		return base.ErrClosed
	}
	return nil
}

// tracker accounts lock footprint for one operation.
type tracker struct {
	held, maxHeld, acquires int
}

func (tk *tracker) lock() {
	tk.held++
	tk.acquires++
	if tk.held > tk.maxHeld {
		tk.maxHeld = tk.held
	}
}
func (tk *tracker) unlock() { tk.held-- }

func (n *cnode) findKey(k base.Key) (int, bool) {
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= k })
	return i, i < len(n.keys) && n.keys[i] == k
}

func (n *cnode) childIndex(k base.Key) int {
	return sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= k })
}

// Search latch-couples shared locks from the root to the leaf.
func (t *Tree) Search(k base.Key) (base.Value, error) {
	if err := t.checkOpen(); err != nil {
		return 0, err
	}
	t.searches.Add(1)
	var tk tracker
	defer func() { t.searchFP.RecordCounts(tk.maxHeld, tk.acquires) }()

	t.meta.RLock()
	n := t.root
	n.mu.RLock()
	tk.lock()
	t.meta.RUnlock()
	for !n.leaf {
		child := n.children[n.childIndex(k)]
		child.mu.RLock() // coupled: parent still held
		tk.lock()
		n.mu.RUnlock()
		tk.unlock()
		n = child
	}
	defer func() { n.mu.RUnlock(); tk.unlock() }()
	if i, ok := n.findKey(k); ok {
		return n.vals[i], nil
	}
	return 0, base.ErrNotFound
}

// Insert latch-couples exclusive locks, splitting any full child before
// descending into it so upward propagation is never needed.
func (t *Tree) Insert(k base.Key, v base.Value) error {
	if err := t.checkOpen(); err != nil {
		return err
	}
	t.inserts.Add(1)
	var tk tracker
	defer func() { t.insertFP.RecordCounts(tk.maxHeld, tk.acquires) }()

	n := t.descendInsert(k, &tk)
	defer func() { n.mu.Unlock(); tk.unlock() }()
	i, dup := n.findKey(k)
	if dup {
		return base.ErrDuplicate
	}
	n.insertAt(i, k, v)
	t.length.Add(1)
	return nil
}

// insertAt places (k, v) at position i of an exclusively locked leaf.
func (n *cnode) insertAt(i int, k base.Key, v base.Value) {
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = k
	n.vals = append(n.vals, 0)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = v
}

// descendInsert performs the insert-discipline descent — exclusive
// lock coupling with preemptive splits — and returns the locked leaf
// that admits k.
func (t *Tree) descendInsert(k base.Key, tk *tracker) *cnode {
	t.meta.Lock()
	n := t.root
	n.mu.Lock()
	tk.lock()
	if len(n.keys) == t.maxKeys() {
		// Preemptive root split while holding the meta lock.
		sep, right := t.splitNode(n)
		newRoot := &cnode{keys: []base.Key{sep}, children: []*cnode{n, right}}
		t.root = newRoot
		t.meta.Unlock()
		var child *cnode
		if k > sep {
			child = right
		} else {
			child = n
		}
		if child != n {
			child.mu.Lock()
			tk.lock()
			n.mu.Unlock()
			tk.unlock()
		}
		n = child
	} else {
		t.meta.Unlock()
	}

	for !n.leaf {
		i := n.childIndex(k)
		child := n.children[i]
		child.mu.Lock()
		tk.lock()
		if len(child.keys) == t.maxKeys() {
			sep, right := t.splitNode(child)
			n.keys = append(n.keys, 0)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = sep
			n.children = append(n.children, nil)
			copy(n.children[i+2:], n.children[i+1:])
			n.children[i+1] = right
			if k > sep {
				right.mu.Lock()
				tk.lock()
				child.mu.Unlock()
				tk.unlock()
				child = right
			}
		}
		n.mu.Unlock()
		tk.unlock()
		n = child
	}
	return n
}

// descendWrite performs a value-only descent — exclusive lock coupling
// with no structural changes, sufficient for writes that cannot alter
// any node's pair count — and returns the locked leaf that admits k.
func (t *Tree) descendWrite(k base.Key, tk *tracker) *cnode {
	t.meta.RLock()
	n := t.root
	n.mu.Lock()
	tk.lock()
	t.meta.RUnlock()
	for !n.leaf {
		child := n.children[n.childIndex(k)]
		child.mu.Lock() // coupled: parent still held
		tk.lock()
		n.mu.Unlock()
		tk.unlock()
		n = child
	}
	return n
}

// splitNode splits a full, exclusively locked node; the caller holds
// (or is about to install) the parent linkage. The new right node is
// returned unlocked — it is unreachable until the caller links it.
func (t *Tree) splitNode(n *cnode) (base.Key, *cnode) {
	t.splits.Add(1)
	if n.leaf {
		m := (len(n.keys) + 1) / 2
		right := &cnode{
			leaf: true,
			keys: append([]base.Key(nil), n.keys[m:]...),
			vals: append([]base.Value(nil), n.vals[m:]...),
			next: n.next,
		}
		n.keys = n.keys[:m:m]
		n.vals = n.vals[:m:m]
		n.next = right
		return n.keys[m-1], right
	}
	m := len(n.keys) / 2
	sep := n.keys[m]
	right := &cnode{
		keys:     append([]base.Key(nil), n.keys[m+1:]...),
		children: append([]*cnode(nil), n.children[m+1:]...),
	}
	n.keys = n.keys[:m:m]
	n.children = n.children[: m+1 : m+1]
	return sep, right
}

// Delete latch-couples exclusive locks, refilling any minimal child
// (borrow or merge) before descending into it.
func (t *Tree) Delete(k base.Key) error {
	if err := t.checkOpen(); err != nil {
		return err
	}
	t.deletes.Add(1)
	var tk tracker
	defer func() { t.deleteFP.RecordCounts(tk.maxHeld, tk.acquires) }()

	n := t.descendDelete(k, &tk)
	defer func() { n.mu.Unlock(); tk.unlock() }()
	i, ok := n.findKey(k)
	if !ok {
		return base.ErrNotFound
	}
	n.removeAt(i)
	t.length.Add(-1)
	return nil
}

// removeAt deletes the pair at position i of an exclusively locked leaf.
func (n *cnode) removeAt(i int) {
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
}

// descendDelete performs the delete-discipline descent — exclusive
// lock coupling with preemptive refills — and returns the locked leaf
// that admits k.
func (t *Tree) descendDelete(k base.Key, tk *tracker) *cnode {
	t.meta.Lock()
	n := t.root
	n.mu.Lock()
	tk.lock()
	// Root shrink: if the root is an internal node with one child, the
	// child becomes the root (can only happen after a merge below).
	if !n.leaf && len(n.children) == 1 {
		child := n.children[0]
		t.root = child
		t.meta.Unlock()
		child.mu.Lock()
		tk.lock()
		n.mu.Unlock()
		tk.unlock()
		n = child
	} else {
		t.meta.Unlock()
	}

	for !n.leaf {
		i := n.childIndex(k)
		var child *cnode
		if i < len(n.children)-1 {
			// Not the last child: a refill, if needed, uses the RIGHT
			// sibling, so locks are acquired strictly left-to-right.
			child = n.children[i]
			child.mu.Lock()
			tk.lock()
			if len(child.keys) <= t.minKeys() {
				right := n.children[i+1]
				right.mu.Lock()
				tk.lock()
				if len(right.keys) > t.minKeys() {
					t.borrowFromRight(n, i, child, right)
					right.mu.Unlock()
					tk.unlock()
				} else {
					t.mergeInto(n, i, child, right)
					right.mu.Unlock()
					tk.unlock()
				}
			}
		} else {
			// Last child: its only sibling is to the LEFT. To keep the
			// global sibling lock order left-to-right (and so deadlock
			// free against leaf-chain scans), lock the left sibling
			// BEFORE the child — the child's occupancy cannot be
			// inspected safely without a lock, so the left lock is
			// taken speculatively.
			var left *cnode
			if i > 0 {
				left = n.children[i-1]
				left.mu.Lock()
				tk.lock()
			}
			child = n.children[i]
			child.mu.Lock()
			tk.lock()
			if left != nil && len(child.keys) <= t.minKeys() {
				if len(left.keys) > t.minKeys() {
					t.borrowFromLeft(n, i, left, child)
				} else {
					t.mergeInto(n, i-1, left, child)
					child.mu.Unlock()
					tk.unlock()
					child = left
					left = nil // descend into the merged survivor
				}
			}
			if left != nil {
				left.mu.Unlock()
				tk.unlock()
			}
		}
		n.mu.Unlock()
		tk.unlock()
		n = child
	}
	return n
}

// Upsert stores v under k, returning the previous value and whether
// one existed. It descends with the insert discipline so an absent key
// can be placed without revisiting any node.
func (t *Tree) Upsert(k base.Key, v base.Value) (base.Value, bool, error) {
	if err := t.checkOpen(); err != nil {
		return 0, false, err
	}
	t.conds.Add(1)
	var tk tracker
	defer func() { t.insertFP.RecordCounts(tk.maxHeld, tk.acquires) }()
	n := t.descendInsert(k, &tk)
	defer func() { n.mu.Unlock(); tk.unlock() }()
	i, ok := n.findKey(k)
	if ok {
		old := n.vals[i]
		n.vals[i] = v
		return old, true, nil
	}
	n.insertAt(i, k, v)
	t.length.Add(1)
	return 0, false, nil
}

// GetOrInsert returns the value under k, inserting v first when absent.
func (t *Tree) GetOrInsert(k base.Key, v base.Value) (base.Value, bool, error) {
	if err := t.checkOpen(); err != nil {
		return 0, false, err
	}
	t.conds.Add(1)
	var tk tracker
	defer func() { t.insertFP.RecordCounts(tk.maxHeld, tk.acquires) }()
	n := t.descendInsert(k, &tk)
	defer func() { n.mu.Unlock(); tk.unlock() }()
	i, ok := n.findKey(k)
	if ok {
		return n.vals[i], true, nil
	}
	n.insertAt(i, k, v)
	t.length.Add(1)
	return v, false, nil
}

// Update replaces the value under k with fn(current), or ErrNotFound.
func (t *Tree) Update(k base.Key, fn func(base.Value) base.Value) (base.Value, error) {
	if err := t.checkOpen(); err != nil {
		return 0, err
	}
	t.conds.Add(1)
	var tk tracker
	defer func() { t.deleteFP.RecordCounts(tk.maxHeld, tk.acquires) }()
	n := t.descendWrite(k, &tk)
	defer func() { n.mu.Unlock(); tk.unlock() }()
	i, ok := n.findKey(k)
	if !ok {
		return 0, base.ErrNotFound
	}
	n.vals[i] = fn(n.vals[i])
	return n.vals[i], nil
}

// CompareAndSwap replaces the value under k with new when it equals
// old. A missing key is ErrNotFound; a mismatch is (false, nil).
func (t *Tree) CompareAndSwap(k base.Key, old, new base.Value) (bool, error) {
	if err := t.checkOpen(); err != nil {
		return false, err
	}
	t.conds.Add(1)
	var tk tracker
	defer func() { t.deleteFP.RecordCounts(tk.maxHeld, tk.acquires) }()
	n := t.descendWrite(k, &tk)
	defer func() { n.mu.Unlock(); tk.unlock() }()
	i, ok := n.findKey(k)
	if !ok {
		return false, base.ErrNotFound
	}
	if n.vals[i] != old {
		return false, nil
	}
	n.vals[i] = new
	return true, nil
}

// CompareAndDelete removes k when its value equals old, descending
// with the delete discipline since a removal may underfill the leaf.
func (t *Tree) CompareAndDelete(k base.Key, old base.Value) (bool, error) {
	if err := t.checkOpen(); err != nil {
		return false, err
	}
	t.conds.Add(1)
	var tk tracker
	defer func() { t.deleteFP.RecordCounts(tk.maxHeld, tk.acquires) }()
	n := t.descendDelete(k, &tk)
	defer func() { n.mu.Unlock(); tk.unlock() }()
	i, ok := n.findKey(k)
	if !ok {
		return false, base.ErrNotFound
	}
	if n.vals[i] != old {
		return false, nil
	}
	n.removeAt(i)
	t.length.Add(-1)
	return true, nil
}

func (t *Tree) borrowFromLeft(n *cnode, i int, left, child *cnode) {
	t.borrows.Add(1)
	if child.leaf {
		last := len(left.keys) - 1
		child.keys = append([]base.Key{left.keys[last]}, child.keys...)
		child.vals = append([]base.Value{left.vals[last]}, child.vals...)
		left.keys = left.keys[:last]
		left.vals = left.vals[:last]
		n.keys[i-1] = left.keys[last-1]
		return
	}
	last := len(left.keys) - 1
	child.keys = append([]base.Key{n.keys[i-1]}, child.keys...)
	child.children = append([]*cnode{left.children[last+1]}, child.children...)
	n.keys[i-1] = left.keys[last]
	left.keys = left.keys[:last]
	left.children = left.children[:last+1]
}

func (t *Tree) borrowFromRight(n *cnode, i int, child, right *cnode) {
	t.borrows.Add(1)
	if child.leaf {
		child.keys = append(child.keys, right.keys[0])
		child.vals = append(child.vals, right.vals[0])
		right.keys = right.keys[1:]
		right.vals = right.vals[1:]
		n.keys[i] = child.keys[len(child.keys)-1]
		return
	}
	child.keys = append(child.keys, n.keys[i])
	child.children = append(child.children, right.children[0])
	n.keys[i] = right.keys[0]
	right.keys = right.keys[1:]
	right.children = right.children[1:]
}

// mergeInto folds n.children[i+1] into n.children[i] (both locked).
func (t *Tree) mergeInto(n *cnode, i int, left, right *cnode) {
	t.merges.Add(1)
	if left.leaf {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
	} else {
		left.keys = append(left.keys, n.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// Range couples shared locks to the first leaf, then hand-over-hand
// along the leaf chain.
func (t *Tree) Range(lo, hi base.Key, fn func(base.Key, base.Value) bool) error {
	if err := t.checkOpen(); err != nil {
		return err
	}
	if hi < lo {
		return nil
	}
	t.meta.RLock()
	n := t.root
	n.mu.RLock()
	t.meta.RUnlock()
	for !n.leaf {
		child := n.children[n.childIndex(lo)]
		child.mu.RLock()
		n.mu.RUnlock()
		n = child
	}
	for {
		for i, k := range n.keys {
			if k < lo {
				continue
			}
			if k > hi || !fn(k, n.vals[i]) {
				n.mu.RUnlock()
				return nil
			}
		}
		next := n.next
		if next == nil {
			n.mu.RUnlock()
			return nil
		}
		next.mu.RLock()
		n.mu.RUnlock()
		n = next
	}
}

// LCStats is a snapshot of counters.
type LCStats struct {
	Searches, Inserts, Deletes uint64
	// Conds counts the conditional writes (Upsert, GetOrInsert, Update,
	// CompareAndSwap, CompareAndDelete).
	Conds                    uint64
	Splits, Merges, Borrows  uint64
	SearchLocks              locks.Footprint
	InsertLocks, DeleteLocks locks.Footprint
}

// Stats returns the counters.
func (t *Tree) Stats() LCStats {
	return LCStats{
		Searches: t.searches.Load(), Inserts: t.inserts.Load(), Deletes: t.deletes.Load(),
		Conds:  t.conds.Load(),
		Splits: t.splits.Load(), Merges: t.merges.Load(), Borrows: t.borrows.Load(),
		SearchLocks: t.searchFP.Snapshot(),
		InsertLocks: t.insertFP.Snapshot(), DeleteLocks: t.deleteFP.Snapshot(),
	}
}

// Check validates invariants (call quiesced).
func (t *Tree) Check() error {
	count, _, err := t.checkNode(t.root, nil, nil, true)
	if err != nil {
		return err
	}
	if count != t.Len() {
		return fmt.Errorf("%w: Len %d but %d pairs found", base.ErrCorrupt, t.Len(), count)
	}
	return nil
}

func (t *Tree) checkNode(n *cnode, lo, hi *base.Key, isRoot bool) (int, int, error) {
	if !isRoot && len(n.keys) < t.minKeys() {
		return 0, 0, fmt.Errorf("%w: underfull node", base.ErrCorrupt)
	}
	if len(n.keys) > t.maxKeys() {
		return 0, 0, fmt.Errorf("%w: overfull node", base.ErrCorrupt)
	}
	for i := 1; i < len(n.keys); i++ {
		if n.keys[i-1] >= n.keys[i] {
			return 0, 0, fmt.Errorf("%w: key order", base.ErrCorrupt)
		}
	}
	for _, k := range n.keys {
		if (lo != nil && k <= *lo) || (hi != nil && k > *hi) {
			return 0, 0, fmt.Errorf("%w: key %d out of bounds", base.ErrCorrupt, k)
		}
	}
	if n.leaf {
		return len(n.keys), 1, nil
	}
	if len(n.children) != len(n.keys)+1 {
		return 0, 0, fmt.Errorf("%w: fanout mismatch", base.ErrCorrupt)
	}
	total, depth := 0, 0
	for i, c := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = &n.keys[i-1]
		}
		if i < len(n.keys) {
			chi = &n.keys[i]
		}
		cnt, d, err := t.checkNode(c, clo, chi, false)
		if err != nil {
			return 0, 0, err
		}
		if depth == 0 {
			depth = d
		} else if depth != d {
			return 0, 0, fmt.Errorf("%w: uneven depth", base.ErrCorrupt)
		}
		total += cnt
	}
	return total, depth + 1, nil
}
