package node

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"blinktree/internal/base"
	"blinktree/internal/storage"
)

func storeFactories(t *testing.T) map[string]func() Store {
	t.Helper()
	return map[string]func() Store{
		"mem": func() Store { return NewMemStore() },
		"paged-mem": func() Store {
			s, err := NewPagedStore(storage.NewMemStore(512))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"paged-file": func() Store {
			fs, err := storage.NewFileStore(filepath.Join(t.TempDir(), "n.db"), 512)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewPagedStore(fs)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"paged-pool": func() Store {
			fs, err := storage.NewFileStore(filepath.Join(t.TempDir(), "p.db"), 512)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewPagedStore(storage.NewBufferPool(fs, 4))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
}

func TestStoreNodeRoundTrip(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			id, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			n := &Node{
				ID: id, Leaf: true, Root: true,
				Low: base.FiniteBound(3), High: base.FiniteBound(99),
				Link: 0, Keys: []base.Key{5, 9}, Vals: []base.Value{50, 90},
			}
			if err := s.Put(n); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if got.ID != id || !got.Leaf || !got.Root ||
				!got.Low.Equal(n.Low) || !got.High.Equal(n.High) ||
				!reflect.DeepEqual(got.Keys, n.Keys) || !reflect.DeepEqual(got.Vals, n.Vals) {
				t.Fatalf("round trip mismatch: %v vs %v", got, n)
			}
		})
	}
}

func TestStoreInternalNodeRoundTrip(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			id, _ := s.Allocate()
			n := &Node{
				ID: id, Deleted: true, OutLink: 77,
				Low: base.NegInfBound(), High: base.PosInfBound(),
				Link: 42, Keys: []base.Key{10}, Children: []base.PageID{1, 2},
			}
			if err := s.Put(n); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if got.Leaf || !got.Deleted || got.OutLink != 77 || got.Link != 42 ||
				got.Low.Kind != base.NegInf || got.High.Kind != base.PosInf ||
				!reflect.DeepEqual(got.Children, n.Children) {
				t.Fatalf("round trip mismatch: %+v", got)
			}
		})
	}
}

func TestStorePrime(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			p, err := s.ReadPrime()
			if err != nil {
				t.Fatal(err)
			}
			if p.Levels != 0 || p.Root != base.NilPage {
				t.Fatalf("fresh prime not empty: %+v", p)
			}
			want := Prime{Root: 9, Levels: 2, Leftmost: []base.PageID{5, 9}}
			if err := s.WritePrime(want); err != nil {
				t.Fatal(err)
			}
			got, err := s.ReadPrime()
			if err != nil {
				t.Fatal(err)
			}
			if got.Root != 9 || got.Levels != 2 || !reflect.DeepEqual(got.Leftmost, want.Leftmost) {
				t.Fatalf("prime mismatch: %+v", got)
			}
		})
	}
}

func TestStoreGetUnallocated(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			if _, err := s.Get(base.PageID(999)); err == nil {
				t.Fatal("Get of unallocated page must fail")
			}
		})
	}
}

func TestStoreFreeReuse(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			id, _ := s.Allocate()
			before := s.Pages()
			if err := s.Free(id); err != nil {
				t.Fatal(err)
			}
			if s.Pages() != before-1 {
				t.Fatalf("Pages() after free = %d, want %d", s.Pages(), before-1)
			}
		})
	}
}

// TestStoreSetValue: SetValue overwrites one value of the current
// version in place — a later Get of the page returns it, whether it
// reads the node the writer holds or decodes the page — and MemStore
// refuses a version the page no longer holds.
func TestStoreSetValue(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			id, _ := s.Allocate()
			if err := s.Put(leafNode(id, 5, 9)); err != nil {
				t.Fatal(err)
			}
			n, err := s.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetValue(n, 1, 7); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Keys, []base.Key{5, 9}) || !reflect.DeepEqual(got.Vals, []base.Value{50, 7}) {
				t.Fatalf("after SetValue: %v vals=%v", got, got.Vals)
			}
			if name != "mem" {
				return
			}
			if got != n {
				t.Fatal("SetValue made a new version")
			}
			if err := s.Put(n.Clone()); err != nil {
				t.Fatal(err)
			}
			if err := s.SetValue(n, 0, 1); !errors.Is(err, base.ErrCorrupt) {
				t.Fatalf("SetValue on a replaced version: %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestMemStoreSnapshotIsolation: a Get taken before a Put must keep
// observing the old image (a version's structure is immutable).
func TestMemStoreSnapshotIsolation(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	id, _ := s.Allocate()
	v1 := &Node{ID: id, Leaf: true, High: base.PosInfBound(), Keys: []base.Key{1}, Vals: []base.Value{10}}
	if err := s.Put(v1); err != nil {
		t.Fatal(err)
	}
	snap, _ := s.Get(id)
	v2 := v1.InsertLeafPair(2, 20)
	v2.ID = id
	if err := s.Put(v2); err != nil {
		t.Fatal(err)
	}
	if len(snap.Keys) != 1 {
		t.Fatal("old snapshot changed under a later Put")
	}
	cur, _ := s.Get(id)
	if len(cur.Keys) != 2 {
		t.Fatal("Put not visible to later Get")
	}
}

func TestMemStoreConcurrentGetPut(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	id, _ := s.Allocate()
	if err := s.Put(leafWith(id, 0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Put(leafWith(id, i)); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 3000; i++ {
		n, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		// Each snapshot must be internally consistent: key == value/10.
		for j, k := range n.Keys {
			if base.Value(k*10) != n.Vals[j] {
				t.Fatalf("torn snapshot: %v", n)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func leafWith(id base.PageID, gen int) *Node {
	n := &Node{ID: id, Leaf: true, High: base.PosInfBound()}
	for j := 0; j <= gen%8; j++ {
		k := base.Key(gen + j)
		n.Keys = append(n.Keys, k)
		n.Vals = append(n.Vals, base.Value(k*10))
	}
	return n
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Decode(1, make([]byte, 64)); err == nil {
		t.Fatal("Decode accepted zero page")
	}
	if _, err := DecodePrime(make([]byte, 64)); err == nil {
		t.Fatal("DecodePrime accepted zero page")
	}
	// A node page is not a prime block and vice versa.
	buf := make([]byte, 256)
	n := &Node{ID: 1, Leaf: true, High: base.PosInfBound()}
	if err := Encode(n, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePrime(buf); err == nil {
		t.Fatal("DecodePrime accepted a node page")
	}
	if err := EncodePrime(Prime{Root: 1, Levels: 1, Leftmost: []base.PageID{1}}, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(1, buf); err == nil {
		t.Fatal("Decode accepted a prime page")
	}
}

func TestCodecTooSmallPage(t *testing.T) {
	n := &Node{ID: 1, Leaf: true, High: base.PosInfBound()}
	for i := 0; i < 10; i++ {
		n.Keys = append(n.Keys, base.Key(i))
		n.Vals = append(n.Vals, 0)
	}
	buf := make([]byte, 64) // too small for 10 pairs
	if err := Encode(n, buf); err == nil {
		t.Fatal("Encode must reject an oversized node")
	}
}

func TestMaxPairsFitsPage(t *testing.T) {
	for _, ps := range []int{256, 512, 4096} {
		m := MaxPairs(ps)
		if m < 1 {
			t.Fatalf("MaxPairs(%d) = %d", ps, m)
		}
		// A leaf and an internal node of m pairs must both encode.
		leaf := &Node{ID: 1, Leaf: true, High: base.PosInfBound()}
		inner := &Node{ID: 2, High: base.PosInfBound(), Children: []base.PageID{1}}
		for i := 0; i < m; i++ {
			leaf.Keys = append(leaf.Keys, base.Key(i))
			leaf.Vals = append(leaf.Vals, 0)
			inner.Keys = append(inner.Keys, base.Key(i))
			inner.Children = append(inner.Children, base.PageID(i+2))
		}
		buf := make([]byte, ps)
		if err := Encode(leaf, buf); err != nil {
			t.Fatalf("leaf of MaxPairs(%d) does not fit: %v", ps, err)
		}
		if err := Encode(inner, buf); err != nil {
			t.Fatalf("internal of MaxPairs(%d) does not fit: %v", ps, err)
		}
	}
}

// Property: Encode/Decode round-trips arbitrary well-formed nodes.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(leaf bool, root, deleted bool, low, high uint64, link, out uint32, rawKeys []uint64) bool {
		n := &Node{
			ID: 1, Leaf: leaf, Root: root, Deleted: deleted,
			Link: base.PageID(link), OutLink: base.PageID(out),
			High: base.PosInfBound(),
		}
		if low%3 == 0 {
			n.Low = base.FiniteBound(base.Key(low))
		}
		if high%2 == 0 && high >= low {
			n.High = base.FiniteBound(base.Key(high))
		}
		if len(rawKeys) > 20 {
			rawKeys = rawKeys[:20]
		}
		for i, k := range rawKeys {
			n.Keys = append(n.Keys, base.Key(k))
			if leaf {
				n.Vals = append(n.Vals, base.Value(k+1))
			} else {
				n.Children = append(n.Children, base.PageID(i+2))
			}
		}
		if !leaf {
			n.Children = append(n.Children, base.PageID(len(rawKeys)+2))
		}
		buf := make([]byte, 512)
		if err := Encode(n, buf); err != nil {
			return true // oversized for the page: not a round-trip case
		}
		got, err := Decode(1, buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, normalize(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// normalize maps empty slices to nil so DeepEqual compares decoded
// (nil-slices) against constructed nodes.
func normalize(n *Node) *Node {
	c := *n
	if len(c.Keys) == 0 {
		c.Keys = make([]base.Key, 0)
	}
	if c.Leaf {
		if len(c.Vals) == 0 {
			c.Vals = make([]base.Value, 0)
		}
		c.Children = nil
	} else {
		c.Vals = nil
	}
	return &c
}

func TestCodecExtremeKeys(t *testing.T) {
	n := &Node{
		ID: 1, Leaf: true,
		Low:  base.FiniteBound(0),
		High: base.FiniteBound(base.Key(math.MaxUint64)),
		Keys: []base.Key{1, base.Key(math.MaxUint64)},
		Vals: []base.Value{base.Value(math.MaxUint64), 0},
	}
	buf := make([]byte, 256)
	if err := Encode(n, buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Keys, n.Keys) || !reflect.DeepEqual(got.Vals, n.Vals) {
		t.Fatal("extreme keys mangled")
	}
	if !bytes.Equal(buf[0:4], []byte("BLNK")) {
		t.Fatal("magic missing")
	}
}
