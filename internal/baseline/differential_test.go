package baseline_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"blinktree/internal/base"
)

// outcome normalizes an operation result for cross-implementation
// comparison.
type outcome struct {
	kind  string
	value base.Value
}

func doOp(tr base.Tree, kind uint8, k base.Key) (outcome, error) {
	// Values are derived deterministically from kind and key so that
	// all implementations receive identical sequences and upserted
	// values vary across repeated visits to the same key.
	v := base.Value(k)*3 + base.Value(kind) + 1
	switch kind % 8 {
	case 0:
		err := tr.Insert(k, v)
		switch {
		case err == nil:
			return outcome{kind: "inserted"}, nil
		case errors.Is(err, base.ErrDuplicate):
			return outcome{kind: "duplicate"}, nil
		default:
			return outcome{}, err
		}
	case 1:
		err := tr.Delete(k)
		switch {
		case err == nil:
			return outcome{kind: "deleted"}, nil
		case errors.Is(err, base.ErrNotFound):
			return outcome{kind: "absent"}, nil
		default:
			return outcome{}, err
		}
	case 2:
		old, existed, err := tr.Upsert(k, v)
		if err != nil {
			return outcome{}, err
		}
		if existed {
			return outcome{kind: "upserted-over", value: old}, nil
		}
		return outcome{kind: "upserted-new"}, nil
	case 3:
		got, loaded, err := tr.GetOrInsert(k, v)
		if err != nil {
			return outcome{}, err
		}
		if loaded {
			return outcome{kind: "loaded", value: got}, nil
		}
		return outcome{kind: "stored", value: got}, nil
	case 4:
		got, err := tr.Update(k, func(cur base.Value) base.Value { return cur + 7 })
		switch {
		case err == nil:
			return outcome{kind: "updated", value: got}, nil
		case errors.Is(err, base.ErrNotFound):
			return outcome{kind: "update-missing"}, nil
		default:
			return outcome{}, err
		}
	case 5:
		// Expected value right half the time (whenever the key's value
		// was last written by an op that stored v for this kind-class).
		ok, err := tr.CompareAndSwap(k, v, v+1)
		switch {
		case err == nil:
			return outcome{kind: fmt.Sprintf("cas=%v", ok)}, nil
		case errors.Is(err, base.ErrNotFound):
			return outcome{kind: "cas-missing"}, nil
		default:
			return outcome{}, err
		}
	case 6:
		ok, err := tr.CompareAndDelete(k, v)
		switch {
		case err == nil:
			return outcome{kind: fmt.Sprintf("cad=%v", ok)}, nil
		case errors.Is(err, base.ErrNotFound):
			return outcome{kind: "cad-missing"}, nil
		default:
			return outcome{}, err
		}
	default:
		v, err := tr.Search(k)
		switch {
		case err == nil:
			return outcome{kind: "found", value: v}, nil
		case errors.Is(err, base.ErrNotFound):
			return outcome{kind: "missing"}, nil
		default:
			return outcome{}, err
		}
	}
}

// TestDifferentialAllTrees applies identical random op sequences — the
// paper's three operations plus every conditional write — to a Go map
// model and to all four implementations, and demands that each
// implementation's outcomes, final Len and full scan equal the model's.
// Three of the four are protocols over one tree (internal/blink), so the
// model, not any of them, is the independent reference.
func TestDifferentialAllTrees(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint16
	}
	f := func(ops []op) bool {
		ref := model{}
		impls := trees()
		for i, o := range ops {
			k := base.Key(o.Key % 128)
			want, err := doOp(ref, o.Kind, k)
			if err != nil {
				return false
			}
			for _, name := range contenders {
				got, err := doOp(impls[name], o.Kind, k)
				if err != nil || got != want {
					fmt.Printf("divergence at op %d (%v on %d): model=%v vs %s=%v (err %v)\n",
						i, o.Kind%8, k, want, name, got, err)
					return false
				}
			}
		}
		// Final state identical: lengths and full scans (pairs, not
		// just keys — upserted values must agree too).
		want := scan(ref)
		for _, name := range contenders {
			if impls[name].Len() != ref.Len() || !slices.Equal(scan(impls[name]), want) {
				fmt.Printf("final state of %s differs from the model\n", name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// scan returns every pair of tr in [0, 1000] in key order.
func scan(tr base.Tree) []base.Item {
	var out []base.Item
	_ = tr.Range(0, 1000, func(k base.Key, v base.Value) bool {
		out = append(out, base.Item{Key: k, Value: v})
		return true
	})
	return out
}

// model is the differential test's reference: base.Tree's contract
// written over a Go map, sequential only.
type model map[base.Key]base.Value

func (m model) Search(k base.Key) (base.Value, error) {
	if v, ok := m[k]; ok {
		return v, nil
	}
	return 0, base.ErrNotFound
}

func (m model) Insert(k base.Key, v base.Value) error {
	if _, ok := m[k]; ok {
		return base.ErrDuplicate
	}
	m[k] = v
	return nil
}

func (m model) Delete(k base.Key) error {
	if _, ok := m[k]; !ok {
		return base.ErrNotFound
	}
	delete(m, k)
	return nil
}

func (m model) Upsert(k base.Key, v base.Value) (base.Value, bool, error) {
	old, ok := m[k]
	m[k] = v
	return old, ok, nil
}

func (m model) GetOrInsert(k base.Key, v base.Value) (base.Value, bool, error) {
	if old, ok := m[k]; ok {
		return old, true, nil
	}
	m[k] = v
	return v, false, nil
}

func (m model) Update(k base.Key, fn func(base.Value) base.Value) (base.Value, error) {
	old, ok := m[k]
	if !ok {
		return 0, base.ErrNotFound
	}
	m[k] = fn(old)
	return m[k], nil
}

func (m model) CompareAndSwap(k base.Key, old, new base.Value) (bool, error) {
	cur, ok := m[k]
	if !ok {
		return false, base.ErrNotFound
	}
	if cur != old {
		return false, nil
	}
	m[k] = new
	return true, nil
}

func (m model) CompareAndDelete(k base.Key, old base.Value) (bool, error) {
	cur, ok := m[k]
	if !ok {
		return false, base.ErrNotFound
	}
	if cur != old {
		return false, nil
	}
	delete(m, k)
	return true, nil
}

func (m model) Range(lo, hi base.Key, fn func(base.Key, base.Value) bool) error {
	keys := make([]base.Key, 0, len(m))
	for k := range m {
		if lo <= k && k <= hi {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		if !fn(k, m[k]) {
			break
		}
	}
	return nil
}

func (m model) Len() int     { return len(m) }
func (m model) Close() error { return nil }
