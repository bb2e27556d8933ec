package btree

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"blinktree/internal/base"
)

func TestBasicOps(t *testing.T) {
	tr, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if err := tr.Insert(5, 50); err != nil {
		t.Fatal(err)
	}
	if v, err := tr.Search(5); err != nil || v != 50 {
		t.Fatalf("Search = (%d,%v)", v, err)
	}
	if err := tr.Insert(5, 51); !errors.Is(err, base.ErrDuplicate) {
		t.Fatal("duplicate accepted")
	}
	if _, err := tr.Search(6); !errors.Is(err, base.ErrNotFound) {
		t.Fatal("missing key found")
	}
	if err := tr.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(5); !errors.Is(err, base.ErrNotFound) {
		t.Fatal("double delete succeeded")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestBulkAscendingDescendingRandom(t *testing.T) {
	orders := map[string]func(n int) []int{
		"ascending": func(n int) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = i
			}
			return out
		},
		"descending": func(n int) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = n - 1 - i
			}
			return out
		},
		"random": func(n int) []int { return rand.New(rand.NewSource(5)).Perm(n) },
	}
	const n = 3000
	for name, gen := range orders {
		t.Run(name, func(t *testing.T) {
			tr, _ := New(3)
			for _, k := range gen(n) {
				if err := tr.Insert(base.Key(k), base.Value(k*2)); err != nil {
					t.Fatalf("insert %d: %v", k, err)
				}
			}
			if err := tr.Check(); err != nil {
				t.Fatal(err)
			}
			if tr.Len() != n {
				t.Fatalf("Len = %d", tr.Len())
			}
			for i := 0; i < n; i++ {
				if v, err := tr.Search(base.Key(i)); err != nil || v != base.Value(i*2) {
					t.Fatalf("Search(%d) = (%d,%v)", i, v, err)
				}
			}
		})
	}
}

func TestDeleteRebalancing(t *testing.T) {
	const n = 3000
	tr, _ := New(2)
	for i := 0; i < n; i++ {
		if err := tr.Insert(base.Key(i), base.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	hFull := tr.Height()
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(n)
	for _, k := range perm[:n-10] {
		if err := tr.Delete(base.Key(k)); err != nil {
			t.Fatalf("delete %d: %v", k, err)
		}
		// Invariants hold after EVERY delete (full rebalancing).
		if tr.Len()%500 == 0 {
			if err := tr.Check(); err != nil {
				t.Fatalf("check at len %d: %v", tr.Len(), err)
			}
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() >= hFull {
		t.Fatalf("height did not shrink: %d -> %d", hFull, tr.Height())
	}
	for _, k := range perm[n-10:] {
		if _, err := tr.Search(base.Key(k)); err != nil {
			t.Fatalf("survivor %d lost", k)
		}
	}
}

func TestRange(t *testing.T) {
	tr, _ := New(2)
	for i := 0; i < 100; i += 3 {
		_ = tr.Insert(base.Key(i), base.Value(i))
	}
	var got []base.Key
	_ = tr.Range(10, 50, func(k base.Key, v base.Value) bool {
		got = append(got, k)
		return true
	})
	var want []base.Key
	for i := 12; i <= 50; i += 3 {
		want = append(want, base.Key(i))
	}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	_ = tr.Range(0, 99, func(base.Key, base.Value) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop count %d", count)
	}
}

// Property: random op sequences agree with a map model.
func TestPropertyMatchesModel(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint16
	}
	f := func(ops []op) bool {
		tr, _ := New(2)
		model := map[base.Key]base.Value{}
		for _, o := range ops {
			k := base.Key(o.Key % 400)
			switch o.Kind % 3 {
			case 0:
				err := tr.Insert(k, base.Value(k)+1)
				if _, p := model[k]; p != errors.Is(err, base.ErrDuplicate) {
					return false
				}
				if err == nil {
					model[k] = base.Value(k) + 1
				}
			case 1:
				err := tr.Delete(k)
				if _, p := model[k]; p == errors.Is(err, base.ErrNotFound) {
					return false
				}
				if err == nil {
					delete(model, k)
				}
			default:
				v, err := tr.Search(k)
				w, p := model[k]
				if p != (err == nil) || (p && v != w) {
					return false
				}
			}
		}
		return tr.Check() == nil && tr.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// A Delete that misses still rebalances on the way down. Once such a
// miss merges the root's last two children the root must collapse all
// the same: further misses keep merging below the lone child until it
// is minimal, and the next descent then finds no sibling to fill it from.
func TestDeleteMissCollapsesRoot(t *testing.T) {
	const n = 64
	tr, _ := New(2)
	for i := 0; i < n; i++ {
		if err := tr.Insert(base.Key(2*i), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i += 2 { // leave every node minimal
		if err := tr.Delete(base.Key(2 * i)); err != nil {
			t.Fatal(err)
		}
	}
	for sweep := 0; sweep < 4; sweep++ {
		for i := 0; i < n; i++ {
			if err := tr.Delete(base.Key(2*i + 1)); !errors.Is(err, base.ErrNotFound) {
				t.Fatalf("delete of absent key %d: %v", 2*i+1, err)
			}
		}
		if err := tr.Check(); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), n/2)
	}
}
