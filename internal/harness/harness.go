// Package harness holds the constructors of the four contenders the
// paper compares — Sagiv's tree, Lehman–Yao, lock coupling and one
// coarse lock — behind base.Tree, so bench/ (blinkbench's baseline.*
// rungs) and the root benchmarks build them the same way. Three of them
// are locking protocols over the one shared tree (internal/blink):
// Sagiv's, Lehman–Yao's (blink.NewLehmanYao) and the coarse lock. Lock
// coupling still brings its own nodes.
package harness

import (
	"fmt"

	"blinktree/internal/base"
	"blinktree/internal/baseline/coarse"
	"blinktree/internal/baseline/lockcoupling"
	"blinktree/internal/blink"
	"blinktree/internal/compress"
	"blinktree/internal/locks"
	"blinktree/internal/node"
	"blinktree/internal/reclaim"
)

// Kind names an index implementation.
type Kind string

// The four contenders.
const (
	KindSagiv        Kind = "sagiv"
	KindLehmanYao    Kind = "lehmanyao"
	KindLockCoupling Kind = "lockcoupling"
	KindCoarse       Kind = "coarse"
)

// AllKinds lists every implementation in report order.
var AllKinds = []Kind{KindSagiv, KindLehmanYao, KindLockCoupling, KindCoarse}

// Instance is a built tree. The Sagiv handles are nil for the baselines.
type Instance struct {
	Kind Kind
	Tree base.Tree

	Blink      *blink.Tree
	Compressor *compress.Compressor
}

// Build constructs an instance of kind with branching parameter k. For
// the Sagiv tree, withCompression attaches a queue compressor (not yet
// started).
func Build(kind Kind, k int, withCompression bool) (*Instance, error) {
	switch kind {
	case KindSagiv:
		st := node.NewMemStore()
		lt := locks.NewTable()
		rec := reclaim.New(st.Free)
		tr, err := blink.New(blink.Config{Store: st, Locks: lt, MinPairs: k, Reclaimer: rec, Restart: blink.RestartBacktrack})
		if err != nil {
			return nil, err
		}
		inst := &Instance{Kind: kind, Tree: tr, Blink: tr}
		if withCompression {
			inst.Compressor = compress.NewCompressor(st, lt, k, rec)
			inst.Compressor.Attach(tr)
		}
		return inst, nil
	case KindLehmanYao:
		tr, err := blink.NewLehmanYao(blink.Config{MinPairs: k})
		if err != nil {
			return nil, err
		}
		return &Instance{Kind: kind, Tree: tr}, nil
	case KindLockCoupling:
		tr, err := lockcoupling.New(k)
		if err != nil {
			return nil, err
		}
		return &Instance{Kind: kind, Tree: tr}, nil
	case KindCoarse:
		tr, err := coarse.New(k)
		if err != nil {
			return nil, err
		}
		return &Instance{Kind: kind, Tree: tr}, nil
	default:
		return nil, fmt.Errorf("harness: unknown kind %q", kind)
	}
}
