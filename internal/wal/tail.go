package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrTruncated reports a tail position whose segment no longer exists:
// a checkpoint deleted it, so the records between the position and the
// live log are gone and the reader must fall back to a state snapshot
// (see repl's bootstrap).
var ErrTruncated = errors.New("wal: position truncated (segment removed by a checkpoint)")

// SegmentHeaderLen is the byte offset of the first record in a
// segment — the starting offset of a fresh tail position.
const SegmentHeaderLen = segHeaderLen

// TailReader reads committed records from a log directory concurrently
// with the log's own committer — the replication streamer's view of
// the WAL. It follows the same trust rule as replay: a record counts
// only when its length and CRC check out, so a half-written group
// (the committer's write racing the read) simply reads as "no more
// yet" and is retried on the next call. Rotation is followed by
// advancing to the next segment id once the current one is exhausted
// and its successor exists on disk.
//
// A TailReader is not safe for concurrent use; each follower feed owns
// one per shard.
type TailReader struct {
	dir string
	seg uint64
	off int64
	f   *os.File
	buf []byte
	// sealed records that the current segment's successor has been seen:
	// the segment is complete, and an empty read of it is final.
	sealed bool
}

// NewTailReader positions a reader at (seg, off) in dir. The position
// is validated lazily on the first Next.
func NewTailReader(dir string, seg uint64, off int64) *TailReader {
	return &TailReader{dir: dir, seg: seg, off: off}
}

// Pos returns the reader's current position: the segment id and byte
// offset of the next unread record.
func (t *TailReader) Pos() (uint64, int64) { return t.seg, t.off }

// Close releases the open segment file. The reader may be reused; the
// next call reopens at the current position.
func (t *TailReader) Close() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
}

// Next reads up to max committed records at the current position and
// advances past them, following rotations. It returns the records read
// (the slice is reused across calls) — an empty result means the
// reader is caught up with the committer. ErrTruncated means the
// position's segment was deleted by a checkpoint and the caller must
// re-bootstrap from a snapshot.
func (t *TailReader) Next(max int, recs []Record) ([]Record, error) {
	return t.NextUntil(max, 0, 0, recs)
}

// NextUntil is Next with a byte-exact stop: when stopSeg is non-zero
// the read never advances past (stopSeg, stopOff), however many
// rotations lie between it and the current position. This is how a
// caller lands a stream on a position it learned elsewhere (a sealed
// state root's) instead of overshooting it mid-batch.
func (t *TailReader) NextUntil(max int, stopSeg uint64, stopOff int64, recs []Record) ([]Record, error) {
	for len(recs) < max {
		want := max - len(recs)
		if stopSeg != 0 && t.seg >= stopSeg {
			if t.seg > stopSeg || t.off+recLen > stopOff {
				return recs, nil // no whole record left before the stop
			}
			want = min(want, int((stopOff-t.off)/recLen))
		}
		if err := t.open(); err != nil {
			return recs, err
		}
		if t.f == nil {
			return recs, nil // segment still being created: no data yet
		}
		n, err := t.readRecords(want, &recs)
		if err != nil {
			return recs, err
		}
		if n > 0 {
			continue // the segment may hold more
		}
		// Caught up within this segment. If its successor exists the
		// committer has rotated away and this segment is complete.
		if _, err := os.Stat(segPath(t.dir, t.seg+1)); err != nil {
			// No successor: normally this is the live segment and the
			// reader is genuinely caught up. But the open descriptor
			// outlives the file — if checkpoints removed this segment AND
			// its successor while it was being read, the records after it
			// are gone, and "caught up" would silently drop them.
			if _, err := os.Stat(segPath(t.dir, t.seg)); os.IsNotExist(err) {
				return recs, ErrTruncated
			}
			return recs, nil
		}
		if !t.sealed {
			// The empty read above may predate the rotation: records
			// committed between the two would be skipped by rolling now.
			// With the successor in place the segment can no longer
			// grow, so one more read settles it.
			t.sealed = true
			continue
		}
		t.Close()
		t.seg, t.off, t.sealed = t.seg+1, segHeaderLen, false
	}
	return recs, nil
}

// open ensures the current segment file is open with a validated
// header. A file that exists but is shorter than its header is a
// segment racing its own creation: treated as "no data yet".
func (t *TailReader) open() error {
	if t.f != nil {
		return nil
	}
	if t.off < segHeaderLen {
		return fmt.Errorf("wal: tail offset %d inside segment header", t.off)
	}
	f, err := os.Open(segPath(t.dir, t.seg))
	if err != nil {
		if os.IsNotExist(err) {
			return ErrTruncated
		}
		return err
	}
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil // header not yet written; retry later
		}
		return err
	}
	if [4]byte(hdr[0:4]) != segMagic ||
		binary.LittleEndian.Uint32(hdr[4:8]) != segVersion ||
		binary.LittleEndian.Uint64(hdr[8:16]) != t.seg {
		f.Close()
		return fmt.Errorf("wal: segment %d header mismatch", t.seg)
	}
	t.f = f
	return nil
}

// readRecords decodes up to max complete records at t.off, appending
// them to *recs and advancing the offset. A torn or incomplete record
// ends the read without error — it is the committer's in-flight tail.
func (t *TailReader) readRecords(max int, recs *[]Record) (int, error) {
	want := max * recLen
	if cap(t.buf) < want {
		t.buf = make([]byte, want)
	}
	b := t.buf[:want]
	n, err := t.f.ReadAt(b, t.off)
	if err != nil && !errors.Is(err, io.EOF) {
		return 0, err
	}
	b = b[:n]
	read := 0
	for read < max {
		rec, consumed, derr := decodeRecord(b)
		if derr != nil {
			break
		}
		*recs = append(*recs, rec)
		b = b[consumed:]
		t.off += int64(consumed)
		read++
	}
	return read, nil
}
