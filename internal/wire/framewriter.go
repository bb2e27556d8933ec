package wire

import (
	"encoding/binary"
	"io"
	"net"
)

// AppendFrame appends one encoded frame — header and payload — to dst
// and returns the extended slice. It is the allocation-free counterpart
// of WriteFrame: when dst has capacity nothing escapes to the heap, so
// a caller that reuses dst across frames encodes an entire pipelined
// burst without allocating.
func AppendFrame(dst []byte, id uint64, code uint8, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrame {
		return dst, ErrFrameTooLarge
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(headerLen-4+len(payload)))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, code)
	return append(dst, payload...), nil
}

// fwRetain caps how much accumulation capacity a FrameWriter keeps
// across Flush calls. A burst larger than this (a scan-heavy poll can
// approach the server's inflight cap) grows the buffer for that burst
// only; steady-state point-op polls stay far below it.
const fwRetain = 256 << 10

// FrameWriter accumulates whole frames in one owned buffer and writes
// them with a single syscall per Flush — the response-side half of
// syscall batching. It replaces bufio.Writer on the hot path, which
// both issued one write per 64 KiB and forced WriteFrame's header
// array to escape through the io.Writer interface (one allocation per
// frame).
//
// Buffer ownership rules:
//   - WriteFrame copies the payload; the caller may reuse it
//     immediately (the server's per-connection encode scratch does).
//   - WriteFrameNoCopy retains the payload slice until the next Flush;
//     ownership transfers to the writer and the caller must not touch
//     it again. Retained slices are flushed with net.Buffers, so a
//     *net.TCPConn sees one writev covering the accumulated frames and
//     every retained payload.
//   - Begin/End encode a payload in place in the writer's own buffer —
//     zero copies, zero per-frame allocations. Abort discards an open
//     frame (for errors discovered mid-encode).
//
// The writer is sticky on error: after any write error every method
// fails fast with it and the connection must be dropped.
type FrameWriter struct {
	w     io.Writer
	buf   []byte
	cuts  []int    // offsets in buf after which owned[i] is spliced
	owned [][]byte // payloads retained by WriteFrameNoCopy
	segs  net.Buffers
	open  int // offset of the open frame's header, -1 if none
	err   error
	// scratch is the Buf handed out by Begin; it aliases buf between
	// Begin and End so payloads are encoded in place.
	scratch Buf
}

// NewFrameWriter returns a FrameWriter flushing to w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w, open: -1}
}

// Reset redirects the writer to w and drops any buffered data and
// sticky error, reusing the accumulated capacity.
func (f *FrameWriter) Reset(w io.Writer) {
	f.w = w
	f.buf = f.buf[:0]
	f.cuts = f.cuts[:0]
	f.owned = f.owned[:0]
	f.open = -1
	f.err = nil
}

// Buffered reports the number of bytes waiting for Flush.
func (f *FrameWriter) Buffered() int {
	n := len(f.buf)
	for _, p := range f.owned {
		n += len(p)
	}
	return n
}

// WriteFrame appends one frame, copying the payload into the writer's
// buffer. The caller keeps ownership of payload.
func (f *FrameWriter) WriteFrame(id uint64, code uint8, payload []byte) error {
	if f.err != nil {
		return f.err
	}
	if f.open >= 0 {
		return f.setErr(errFrameOpen)
	}
	b, err := AppendFrame(f.buf, id, code, payload)
	if err != nil {
		return f.setErr(err)
	}
	f.buf = b
	return nil
}

// WriteFrameNoCopy appends one frame whose payload is retained — not
// copied — until the next Flush. Ownership of payload transfers to the
// writer; the caller must not modify or reuse it before Flush returns.
func (f *FrameWriter) WriteFrameNoCopy(id uint64, code uint8, payload []byte) error {
	if f.err != nil {
		return f.err
	}
	if f.open >= 0 {
		return f.setErr(errFrameOpen)
	}
	if len(payload) > MaxFrame {
		return f.setErr(ErrFrameTooLarge)
	}
	f.buf = binary.LittleEndian.AppendUint32(f.buf, uint32(headerLen-4+len(payload)))
	f.buf = binary.LittleEndian.AppendUint64(f.buf, id)
	f.buf = append(f.buf, code)
	f.cuts = append(f.cuts, len(f.buf))
	f.owned = append(f.owned, payload)
	return nil
}

// Begin opens a frame and returns an encode buffer positioned at its
// payload: the caller appends payload bytes to the returned Buf (which
// aliases the writer's own buffer) and calls End. Exactly one frame
// may be open at a time.
func (f *FrameWriter) Begin(id uint64, code uint8) *Buf {
	if f.err != nil || f.open >= 0 {
		if f.open >= 0 {
			f.setErr(errFrameOpen)
		}
		// Hand back a throwaway buffer so callers can stay linear;
		// End reports the sticky error.
		f.scratch.Reset()
		return &f.scratch
	}
	f.open = len(f.buf)
	f.buf = binary.LittleEndian.AppendUint32(f.buf, 0) // patched by End
	f.buf = binary.LittleEndian.AppendUint64(f.buf, id)
	f.buf = append(f.buf, code)
	f.scratch.B = f.buf
	return &f.scratch
}

// End closes the frame opened by Begin, patching its length header.
func (f *FrameWriter) End() error {
	if f.err != nil {
		return f.err
	}
	if f.open < 0 {
		return f.setErr(errFrameNotOpen)
	}
	f.buf = f.scratch.B
	f.scratch.B = nil
	payload := len(f.buf) - f.open - headerLen
	if payload > MaxFrame {
		f.buf = f.buf[:f.open]
		f.open = -1
		return f.setErr(ErrFrameTooLarge)
	}
	binary.LittleEndian.PutUint32(f.buf[f.open:], uint32(headerLen-4+payload))
	f.open = -1
	return nil
}

// Abort discards the frame opened by Begin, e.g. when an error is
// discovered mid-encode and an error frame should be sent instead.
func (f *FrameWriter) Abort() {
	if f.open >= 0 {
		f.buf = f.buf[:f.open]
		f.scratch.B = nil
		f.open = -1
	}
}

// Flush writes every buffered frame. With no retained payloads this is
// a single Write; with retained payloads it assembles a net.Buffers
// and hands it to the connection in one call (one writev on a
// *net.TCPConn).
func (f *FrameWriter) Flush() error {
	if f.err != nil {
		return f.err
	}
	if f.open >= 0 {
		return f.setErr(errFrameOpen)
	}
	if len(f.buf) == 0 && len(f.owned) == 0 {
		return nil
	}
	if len(f.owned) == 0 {
		_, err := f.w.Write(f.buf)
		f.afterFlush()
		if err != nil {
			return f.setErr(err)
		}
		return nil
	}
	segs := f.segs[:0]
	prev := 0
	for i, cut := range f.cuts {
		if cut > prev {
			segs = append(segs, f.buf[prev:cut])
		}
		if len(f.owned[i]) > 0 {
			segs = append(segs, f.owned[i])
		}
		prev = cut
	}
	if len(f.buf) > prev {
		segs = append(segs, f.buf[prev:])
	}
	// WriteTo advances its receiver's slice header as it consumes
	// segments, leaving f.segs pointing at the exhausted tail with zero
	// capacity — so the pre-WriteTo header is kept in segs and restored
	// (emptied) afterwards, or every retained-payload flush would
	// reallocate the segment slice. Restoring goes through the local
	// header rather than running WriteTo on a local copy: the copy's
	// address would escape through the io.Writer plumbing, costing the
	// allocation this path exists to avoid. The elements are cleared so
	// flushed payloads are not pinned until the next flush overwrites
	// them.
	f.segs = segs
	_, err := f.segs.WriteTo(f.w)
	for i := range segs {
		segs[i] = nil
	}
	f.segs = segs[:0]
	f.afterFlush()
	if err != nil {
		return f.setErr(err)
	}
	return nil
}

// afterFlush resets the accumulation state, bounding retained capacity.
func (f *FrameWriter) afterFlush() {
	if cap(f.buf) > fwRetain {
		f.buf = nil
	} else {
		f.buf = f.buf[:0]
	}
	f.cuts = f.cuts[:0]
	for i := range f.owned {
		f.owned[i] = nil
	}
	f.owned = f.owned[:0]
}

// setErr records the writer's first error.
func (f *FrameWriter) setErr(err error) error {
	if f.err == nil {
		f.err = err
	}
	return f.err
}

// Err returns the sticky error, if any.
func (f *FrameWriter) Err() error { return f.err }

var (
	errFrameOpen    = errLit("wire: FrameWriter: frame still open")
	errFrameNotOpen = errLit("wire: FrameWriter: End without Begin")
)

// errLit is a tiny constant-friendly error type.
type errLit string

func (e errLit) Error() string { return string(e) }
