package gen

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func streamBytes(t *testing.T, seed uint64, caller int, z *Zipf) []byte {
	t.Helper()
	s, err := NewStream(seed, caller, 31250, Mix{Search: 80, Upsert: 20}, z)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for i := 0; i < 20000; i++ {
		op := s.Next()
		b.WriteByte(byte(op.Kind))
		_ = binary.Write(&b, binary.LittleEndian, op.Index) // bytes.Buffer cannot fail
	}
	return b.Bytes()
}

func TestSameSeedSameBytesPerCaller(t *testing.T) {
	z, err := NewZipf(31250, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range []*Zipf{nil, z} {
		for caller := 0; caller < 3; caller++ {
			a, b := streamBytes(t, 7, caller, dist), streamBytes(t, 7, caller, dist)
			if !bytes.Equal(a, b) {
				t.Fatalf("caller %d: same seed, different stream", caller)
			}
			if bytes.Equal(a, streamBytes(t, 8, caller, dist)) {
				t.Fatalf("caller %d: seeds 7 and 8 give the same stream", caller)
			}
			if bytes.Equal(a, streamBytes(t, 7, caller+1, dist)) {
				t.Fatalf("callers %d and %d share a stream", caller, caller+1)
			}
		}
	}
}

func TestMixAndSkew(t *testing.T) {
	z, err := NewZipf(1000, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(1, 0, 1000, Mix{Search: 50, Insert: 25, Delete: 25}, z)
	if err != nil {
		t.Fatal(err)
	}
	var kinds [NumKinds]int
	hits := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		op := s.Next()
		if op.Index >= 1000 {
			t.Fatalf("index %d out of range", op.Index)
		}
		kinds[op.Kind]++
		hits[op.Index]++
	}
	for k, want := range []float64{0.5, 0.25, 0.25, 0} {
		if got := float64(kinds[k]) / n; got < want-0.01 || got > want+0.01 {
			t.Errorf("%s share %.3f, want %.2f", Kind(k), got, want)
		}
	}
	// theta 0.99 over 1000 items: the hottest item draws about 13 %,
	// and the second hottest is not its neighbour (ranks are scattered).
	first, second := 0, 1
	for i, h := range hits {
		switch {
		case h > hits[first]:
			first, second = i, first
		case i != first && h > hits[second]:
			second = i
		}
	}
	if share := float64(hits[first]) / n; share < 0.10 || share > 0.17 {
		t.Errorf("hottest index holds %.3f of the draws", share)
	}
	if d := first - second; d == 1 || d == -1 {
		t.Errorf("the two hottest indices %d and %d are neighbours", first, second)
	}
	if _, err := NewStream(1, 0, 10, Mix{Search: 99}, nil); err == nil {
		t.Error("a mix summing to 99 was accepted")
	}
	if _, err := NewZipf(10, 1.2); err == nil {
		t.Error("theta 1.2 was accepted")
	}
}
