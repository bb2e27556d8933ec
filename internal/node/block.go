package node

import (
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"

	"blinktree/internal/base"
)

// A node version is one block of memory: the Node header, then its keys,
// then its values (leaf) or children (internal). A descent reads a
// node's header and the keys it searches from the same block, and a
// rewrite allocates one object where a header and two arrays would take
// three. Each region is a slice whose capacity is its length, so an
// append to one reallocates it rather than writing over the next.
//
// The block's type is a struct of Node and a [words]uint64 tail, so the
// collector scans the header's pointers and skips the tail. One type is
// built per tail length and cached; the block is allocated at exactly
// that size.

var (
	blockMu    sync.Mutex                     // serializes additions to blockTypes
	blockTypes atomic.Pointer[[]reflect.Type] // indexed by tail words; grown copy-on-write
)

// blockType returns the type of a block whose tail holds words words.
func blockType(words int) reflect.Type {
	if ts := blockTypes.Load(); ts != nil && words < len(*ts) && (*ts)[words] != nil {
		return (*ts)[words]
	}
	blockMu.Lock()
	defer blockMu.Unlock()
	var ts []reflect.Type
	if p := blockTypes.Load(); p != nil {
		ts = *p
	}
	if words < len(ts) && ts[words] != nil {
		return ts[words]
	}
	grown := make([]reflect.Type, max(len(ts), words+1))
	copy(grown, ts)
	grown[words] = reflect.StructOf([]reflect.StructField{
		{Name: "Node", Type: reflect.TypeFor[Node]()},
		{Name: "Tail", Type: reflect.ArrayOf(words, reflect.TypeFor[uint64]())},
	})
	blockTypes.Store(&grown)
	return grown[words]
}

// New returns a zeroed node of the given kind holding nkeys keys and the
// payload that goes with them — nkeys values in a leaf, nkeys+1 children
// in an internal node — all in one block.
func New(leaf bool, nkeys int) *Node {
	if leaf {
		return alloc(true, nkeys, nkeys)
	}
	return alloc(false, nkeys, nkeys+1)
}

// alloc is the one node constructor: a zeroed block with nk keys and np
// values (leaf) or children (internal). An empty region is an empty,
// non-nil slice that points at no block, as the payload a node's kind
// does not have is nil.
func alloc(leaf bool, nk, np int) *Node {
	words := nk
	if leaf {
		words += np
	} else {
		words += (np + 1) / 2 // 4-byte page ids
	}
	if words == 0 {
		n := &Node{Leaf: leaf, Keys: []base.Key{}}
		if leaf {
			n.Vals = []base.Value{}
		} else {
			n.Children = []base.PageID{}
		}
		return n
	}
	n := (*Node)(reflect.New(blockType(words)).UnsafePointer())
	n.Leaf = leaf
	tail := unsafe.Add(unsafe.Pointer(n), unsafe.Sizeof(Node{}))
	if nk > 0 {
		n.Keys = unsafe.Slice((*base.Key)(tail), nk)
	} else {
		n.Keys = []base.Key{}
	}
	payload := unsafe.Add(tail, 8*nk) // inside the block whenever np > 0
	switch {
	case leaf && np > 0:
		n.Vals = unsafe.Slice((*base.Value)(payload), np)
	case leaf:
		n.Vals = []base.Value{}
	case np > 0:
		n.Children = unsafe.Slice((*base.PageID)(payload), np)
	default:
		n.Children = []base.PageID{}
	}
	return n
}

// resized returns a fresh block with n's header and nk keys and np
// values or children, for the caller to fill.
func (n *Node) resized(nk, np int) *Node {
	c := alloc(n.Leaf, nk, np)
	keys, vals, kids := c.Keys, c.Vals, c.Children
	*c = *n
	c.Keys, c.Vals, c.Children = keys, vals, kids
	return c
}

// Val returns the value of pair i of a leaf. Value words are the one
// part of a published node that changes in place (Store.SetValue), so a
// reader that does not hold the leaf's lock loads them atomically.
func (n *Node) Val(i int) base.Value {
	return base.Value(atomic.LoadUint64((*uint64)(&n.Vals[i])))
}

// setVal stores v as the value of pair i: the one write to a published
// node, a single aligned word.
func (n *Node) setVal(i int, v base.Value) {
	atomic.StoreUint64((*uint64)(&n.Vals[i]), uint64(v))
}
