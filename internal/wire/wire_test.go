package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"blinktree/internal/base"
)

func TestHelloRoundTrip(t *testing.T) {
	var b bytes.Buffer
	if err := WriteHello(&b); err != nil {
		t.Fatal(err)
	}
	if err := ReadHello(&b); err != nil {
		t.Fatal(err)
	}
}

func TestHelloRejections(t *testing.T) {
	if err := ReadHello(bytes.NewReader([]byte("HTTP/1.1"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	bad := make([]byte, 8)
	copy(bad, Magic[:])
	// One version exactly: older is refused like newer.
	for _, v := range []uint16{0, Version - 1, Version + 1, Version + 7} {
		binary.LittleEndian.PutUint16(bad[4:6], v)
		if err := ReadHello(bytes.NewReader(bad)); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: got %v, want ErrVersion", v, err)
		}
	}
	if err := ReadHello(bytes.NewReader(bad[:3])); err == nil {
		t.Fatal("short hello: want error")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var b bytes.Buffer
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 1000)}
	for i, p := range payloads {
		if err := WriteFrame(&b, uint64(i)*77, uint8(i), p); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&b)
	var scratch []byte
	for i, p := range payloads {
		id, code, got, err := ReadFrame(br, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if id != uint64(i)*77 || code != uint8(i) {
			t.Fatalf("frame %d: id=%d code=%d", i, id, code)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got), len(p))
		}
	}
	if _, _, _, err := ReadFrame(br, nil); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: got %v, want EOF", err)
	}
}

func TestFrameTornTail(t *testing.T) {
	var b bytes.Buffer
	if err := WriteFrame(&b, 9, OpSearch, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	whole := b.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		br := bufio.NewReader(bytes.NewReader(whole[:cut]))
		_, _, _, err := ReadFrame(br, nil)
		if err == nil {
			t.Fatalf("cut %d: want error", cut)
		}
		if cut >= 4 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d inside frame: got %v, want unexpected EOF", cut, err)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	if err := WriteFrame(io.Discard, 1, OpBatch, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write: got %v", err)
	}
	var h [4]byte
	binary.LittleEndian.PutUint32(h[:], MaxFrame+64)
	br := bufio.NewReader(bytes.NewReader(h[:]))
	if _, _, _, err := ReadFrame(br, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read: got %v", err)
	}
}

func TestStatusErrorMapping(t *testing.T) {
	cases := []struct {
		err  error
		code uint8
	}{
		{nil, StatusOK},
		{base.ErrNotFound, StatusNotFound},
		{base.ErrDuplicate, StatusDuplicate},
		{base.ErrClosed, StatusClosed},
		{base.ErrCorrupt, StatusCorrupt},
		{errors.New("disk on fire"), StatusInternal},
	}
	for _, c := range cases {
		if got := ErrStatus(c.err); got != c.code {
			t.Fatalf("ErrStatus(%v) = %d, want %d", c.err, got, c.code)
		}
	}
	// Sentinels survive the round trip so errors.Is works across the wire.
	for _, sentinel := range []error{base.ErrNotFound, base.ErrDuplicate, base.ErrClosed, base.ErrCorrupt} {
		if got := StatusError(ErrStatus(sentinel), ""); !errors.Is(got, sentinel) {
			t.Fatalf("round trip of %v = %v", sentinel, got)
		}
	}
	if StatusError(StatusOK, "") != nil {
		t.Fatal("StatusOK should map to nil")
	}
	var werr *Error
	if err := StatusError(StatusBadRequest, "nope"); !errors.As(err, &werr) || werr.Msg != "nope" {
		t.Fatalf("StatusBadRequest: got %v", err)
	}
}

func TestBufDecRoundTrip(t *testing.T) {
	var b Buf
	b.U8(7)
	b.U32(1 << 30)
	b.U64(^uint64(0))
	d := Dec{B: b.B}
	if d.U8() != 7 || d.U32() != 1<<30 || d.U64() != ^uint64(0) {
		t.Fatal("decode mismatch")
	}
	if !d.Done() {
		t.Fatalf("not done: off/err %v", d.Err)
	}
	d.U8()
	if d.Err == nil {
		t.Fatal("overread: want error")
	}
}
