package wal

import (
	"errors"
	"os"
	"testing"

	"blinktree/internal/base"
)

// tailCollect drains the reader fully, returning everything read.
func tailCollect(t *testing.T, tr *TailReader) []Record {
	t.Helper()
	var out []Record
	for {
		recs, err := tr.Next(64, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			return out
		}
		out = append(out, recs...)
	}
}

// TestTailReaderFollowsRotation: records written across several
// segment rotations come back complete, in order, and the reader's
// position lands in the live segment.
func TestTailReaderFollowsRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, NoSync: true}, 0, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 100 // 100 × 25 bytes across 256-byte segments: many rotations
	for i := 0; i < n; i++ {
		if err := l.Append(Record{Kind: KindPut, Key: base.Key(i), Value: base.Value(i * 3)}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	tr := NewTailReader(dir, 1, SegmentHeaderLen)
	defer tr.Close()
	got := tailCollect(t, tr)
	if len(got) != n {
		t.Fatalf("tail read %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if r.Key != base.Key(i) || r.Value != base.Value(i*3) || r.Kind != KindPut {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	seg, _ := tr.Pos()
	if cur := l.CurrentSegment(); seg != cur {
		t.Fatalf("tail stopped in segment %d, live segment is %d", seg, cur)
	}
	if l.Stats().Rotations == 0 {
		t.Fatal("test did not exercise rotation")
	}

	// More appends after the reader caught up must be picked up by the
	// same reader (the live-tail case).
	if err := l.Append(Record{Kind: KindDel, Key: 7}).Wait(); err != nil {
		t.Fatal(err)
	}
	got = tailCollect(t, tr)
	if len(got) != 1 || got[0].Kind != KindDel || got[0].Key != 7 {
		t.Fatalf("live tail read %+v, want the del", got)
	}
}

// TestTailReaderTornTail: a torn record at the end of the live segment
// reads as "no more yet" — never an error, never a partial record.
func TestTailReaderTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true}, 0, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: KindPut, Key: 1, Value: 2}).Wait(); err != nil {
		t.Fatal(err)
	}
	seg := l.CurrentSegment()
	l.Close()
	// Append garbage prefixed by a plausible length: a torn group.
	f, err := os.OpenFile(segPath(dir, seg), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{17, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tr := NewTailReader(dir, seg, SegmentHeaderLen)
	defer tr.Close()
	recs, err := tr.Next(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Key != 1 {
		t.Fatalf("read %+v, want exactly the one valid record", recs)
	}
	if recs, err = tr.Next(16, nil); err != nil || len(recs) != 0 {
		t.Fatalf("torn tail read (%v, %v), want (none, nil)", recs, err)
	}
}

// TestTailReaderTruncated: a position whose segment a checkpoint
// removed reports ErrTruncated, the caller's signal to re-bootstrap.
func TestTailReaderTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true}, 0, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{Kind: KindPut, Key: 1, Value: 2}).Wait(); err != nil {
		t.Fatal(err)
	}
	seg, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveBelow(seg); err != nil {
		t.Fatal(err)
	}
	tr := NewTailReader(dir, seg-1, SegmentHeaderLen)
	defer tr.Close()
	if _, err := tr.Next(16, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("tail of removed segment: %v, want ErrTruncated", err)
	}

	// The same through an open descriptor: a reader already inside a
	// segment keeps reading it after removal. One checkpoint is harmless
	// (the successor exists, the reader rolls forward); a second one that
	// also removes the successor must surface, not read as "caught up".
	held := NewTailReader(dir, seg, SegmentHeaderLen)
	defer held.Close()
	if err := l.Append(Record{Kind: KindPut, Key: 2, Value: 2}).Wait(); err != nil {
		t.Fatal(err)
	}
	if recs := tailCollect(t, held); len(recs) != 1 {
		t.Fatalf("read %d records from the live segment, want 1", len(recs))
	}
	for i := 0; i < 2; i++ {
		if err := l.Append(Record{Kind: KindPut, Key: 3, Value: base.Value(i)}).Wait(); err != nil {
			t.Fatal(err)
		}
		next, err := l.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		if err := l.RemoveBelow(next); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := held.Next(16, nil)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("reader holding a twice-truncated segment: (%v, %v), want ErrTruncated", recs, err)
	}
}

// TestTailReaderNextUntil: a stop position is honoured to the byte,
// across a rotation, and lifting it resumes exactly there.
func TestTailReaderNextUntil(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true}, 0, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	put := func(from, to int) {
		for i := from; i < to; i++ {
			if err := l.Append(Record{Kind: KindPut, Key: base.Key(i), Value: 1}).Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, 10)
	seg, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	put(10, 30)
	stopOff := int64(SegmentHeaderLen + 7*RecordLen)
	tr := NewTailReader(dir, seg-1, SegmentHeaderLen)
	defer tr.Close()
	recs, err := tr.NextUntil(64, seg, stopOff, nil)
	if err != nil || len(recs) != 17 {
		t.Fatalf("read (%d records, %v) up to the stop, want 17", len(recs), err)
	}
	if gs, go_ := tr.Pos(); gs != seg || go_ != stopOff {
		t.Fatalf("stopped at (%d, %d), want (%d, %d)", gs, go_, seg, stopOff)
	}
	if recs, err = tr.NextUntil(64, seg, stopOff, nil); err != nil || len(recs) != 0 {
		t.Fatalf("read past the stop: (%d records, %v)", len(recs), err)
	}
	if recs, err = tr.Next(64, nil); err != nil || len(recs) != 13 || recs[0].Key != 17 {
		t.Fatalf("resume after the stop: (%d records, %v), want 13 starting at key 17", len(recs), err)
	}
}
