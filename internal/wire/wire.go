// Package wire defines the binary protocol spoken between
// internal/server and the public client package (and any third-party
// client; docs/protocol.md is the normative specification). It is the
// only vocabulary the two sides share, so the server never imports the
// client and the client never imports the engine.
//
// The protocol is length-prefixed binary, little endian throughout:
//
//	hello    magic "BLNK" | version u16 | flags u16        (both directions, once)
//	request  len u32 | id u64 | op u8 | payload            (len counts id..payload)
//	response len u32 | id u64 | status u8 | payload
//
// Requests are pipelined: a client may send any number of requests
// without waiting, and the server may answer them in any order — the
// id, chosen by the client, is what matches a response to its request.
// Out-of-order completion is what lets the server coalesce a burst of
// pipelined requests into one shard-parallel batch.
//
// Payload shapes per op are documented on the Op constants and in
// docs/protocol.md. Every error travels as a one-byte status code
// (plus an optional UTF-8 message payload); StatusError and ErrStatus
// convert between codes and the module's sentinel errors so that
// errors.Is(err, blinktree.ErrNotFound) works across the wire.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"blinktree/internal/base"
)

// Magic opens the hello exchange in both directions.
var Magic = [4]byte{'B', 'L', 'N', 'K'}

// Version is the one protocol version this build speaks; a peer
// advertising any other is refused at the hello. Adding ops or status
// codes keeps the version (a peer never sends an op it does not know);
// changing a payload shape bumps it, on both sides at once — clients
// and servers ship from this one module.
const Version uint16 = 3

// helloLen is the byte length of a hello in either direction.
const helloLen = 8

// Op codes. The payload shapes given here are the request → response
// payloads on StatusOK; error responses carry an optional message.
const (
	// OpPing: "" → "". Liveness and pipelining-barrier probe.
	OpPing uint8 = 1
	// OpSearch: key u64 → value u64.
	OpSearch uint8 = 2
	// OpInsert: key u64 | value u64 → "". StatusDuplicate if present.
	OpInsert uint8 = 3
	// OpDelete: key u64 → "". StatusNotFound if absent.
	OpDelete uint8 = 4
	// OpUpsert: key u64 | value u64 → old u64 | existed u8.
	OpUpsert uint8 = 5
	// OpGetOrInsert: key u64 | value u64 → actual u64 | loaded u8.
	OpGetOrInsert uint8 = 6
	// OpCompareAndSwap: key u64 | old u64 | new u64 → swapped u8.
	// A mismatch is StatusOK with swapped = 0; a missing key is
	// StatusNotFound.
	OpCompareAndSwap uint8 = 7
	// OpCompareAndDelete: key u64 | old u64 → deleted u8.
	OpCompareAndDelete uint8 = 8
	// OpScan: lo u64 | hi u64 | limit u32 →
	// more u8 | count u32 | count × (key u64 | value u64).
	// One bounded page of lo ≤ key ≤ hi in ascending order; limit 0
	// means DefaultScanLimit and is capped at MaxScanLimit. more = 1
	// reports that the page filled before hi was reached — resume with
	// lo = last returned key + 1.
	OpScan uint8 = 9
	// OpBatch: count u32 | count × (kind u8 | key u64 | value u64 | old u64) →
	// count × (status u8 | value u64 | ok u8).
	// kind is one of OpSearch..OpCompareAndDelete; slots execute
	// shard-parallel with per-slot status, positionally aligned.
	OpBatch uint8 = 10
	// OpLen: "" → n u64.
	OpLen uint8 = 11
	// OpCheckpoint: "" → "". Durable snapshot + WAL truncation; no-op
	// (still StatusOK) on a volatile server.
	OpCheckpoint uint8 = 12
	// OpStats: "" → count u32 | count × u64, the index-level counters
	// in StatsFields order. Clients must tolerate count greater than
	// the fields they know (new fields append).
	OpStats uint8 = 13
	// OpFollow: shards u32 | shards × (seg u64 | off u64) →
	// shards u32. The replication handshake: the payload carries the
	// follower's durable per-shard WAL positions (seg 0 = fresh). On
	// StatusOK the connection leaves request/response mode and becomes
	// a replication stream of Frame* frames (primary → follower) and
	// FrameAck frames (follower → primary); see docs/protocol.md.
	// Requires a durable server and a matching shard count.
	OpFollow uint8 = 14
	// OpPromote: "" → was u8 (1 = the server was a follower). Stops
	// replication and makes a read-only follower writable; a no-op
	// (was = 0) on a server that was not following.
	OpPromote uint8 = 15
	// OpMigrate: mode u8 | shard u32 | targetLen u16 | target → "".
	// Mode 0 (admin → source) triggers a live migration of the shard's
	// key range to the cluster member at target and answers when the
	// handoff completes (or failed). Mode 1 (source → target, target
	// empty) is the ingest handshake: on StatusOK the response payload
	// is already u8 — 1 means the target already owns the range (a
	// prior handoff completed) and no stream follows; 0 means the
	// connection leaves request/response mode and becomes a migration
	// stream of FrameReset/FrameRecords/FrameSnapEnd/FrameHandoff frames
	// (source → target) and FrameMigAck frames (target → source). Requires a
	// cluster-enabled durable server; see docs/protocol.md.
	OpMigrate uint8 = 16
	// OpClusterMap: "" → an encoded ClusterMap (the server's current
	// view of range ownership). Any cluster member answers; a
	// non-cluster server answers StatusBadRequest.
	OpClusterMap uint8 = 17
	// OpRoot: "" → root [32]. The server's current state root under the
	// integrity layer's hash tree. Concurrent with writers the
	// root is fuzzy-but-recent; quiesced it is the exact deterministic
	// hash of the full content. StatusBadRequest on an unverified
	// server.
	OpRoot uint8 = 18
	// OpProve: key u64 → an encoded inclusion/exclusion proof (see
	// verify.EncodeProof and docs/protocol.md §Proof encoding). The
	// proof pins the key's presence or absence, and its value when
	// present, to a state root the client checks against one it
	// trusts. StatusBadRequest on an unverified server.
	OpProve uint8 = 19
)

// State-transfer stream frame codes. After an OpFollow or OpMigrate
// ingest handshake the op/status byte carries these instead; the frame
// id carries the shard index (0 for the ack frames). Both streams carry
// the same sender→receiver sequence — Reset, Records, SnapEnd, then
// positioned Records — described below in the follower's terms; a
// migration target applies it the same way and keeps no position. They
// live above the status range so a receiver can never confuse a stream
// frame with a late response.
const (
	// FrameRecords (primary→follower): seg u64 | endOff u64 |
	// count u32 | count × (kind u8 | key u64 | value u64). The shard's
	// next records in log order; (seg, endOff) is the WAL position
	// after the last one — the follower's new resume position, except
	// seg 0 which means "do not advance" (snapshot bootstrap pairs).
	FrameRecords uint8 = 200
	// FrameReset (primary→follower): "". The follower's position for
	// this shard cannot be served (fresh follower, or the segments
	// were truncated by a checkpoint): the follower must wipe the
	// shard and apply the snapshot FrameRecords that follow.
	FrameReset uint8 = 201
	// FrameSnapEnd (primary→follower): seg u64. Ends a snapshot
	// bootstrap: the shard now equals the primary's fuzzy snapshot and
	// streaming resumes at (seg, start-of-records); only now does the
	// follower commit the shard's position.
	FrameSnapEnd uint8 = 202
	// FrameHandoff (migration source→target): version u64. Ends a
	// migration stream: every record for the range has been shipped and
	// the source is fenced. The target wipes nothing further, persists
	// itself as the range's owner at the given map version, starts
	// serving the range, and answers with a final FrameMigAck.
	FrameHandoff uint8 = 203
	// FrameRoot (primary→follower): seg u64 | off u64 |
	// root [32]. The primary's sealed per-shard state root at an exact
	// WAL position: every record at or below (seg, off) is reflected in
	// root and every record above it is not. A follower that reaches
	// exactly that position computes its own shard root and compares;
	// divergence means follower corruption or a tampered stream, and
	// the follower refuses to continue. The frame id carries the shard
	// index, like every primary→follower frame.
	FrameRoot uint8 = 204
	// FrameAck (follower→primary): shards u32 | shards × (seg u64 |
	// off u64) | applied u64. Periodic acknowledgement of the
	// follower's durable positions and cumulative applied-record
	// count; the primary uses it for lag gauges and backpressure.
	FrameAck uint8 = 210
	// FrameMigAck (migration target→source): applied u64. Cumulative
	// count of records the target has applied; flow control for the
	// migration stream, and — after FrameHandoff — the commit
	// acknowledgement that the target owns the range.
	FrameMigAck uint8 = 211
)

// StatsFields is the order of the u64 counters in an OpStats response:
// shards, len, height, searches, inserts, deletes, upserts, updates,
// cas, scans, batches, batch-ops. New fields append; old clients
// ignore the tail, old servers send fewer.
const StatsFields = 12

// Status codes.
const (
	StatusOK         uint8 = 0
	StatusNotFound   uint8 = 1
	StatusDuplicate  uint8 = 2
	StatusClosed     uint8 = 3
	StatusCorrupt    uint8 = 4
	StatusBadRequest uint8 = 5
	StatusTooLarge   uint8 = 6
	StatusInternal   uint8 = 7
	// StatusShutdown reports the server is draining; the client should
	// reconnect (likely to another instance) and retry.
	StatusShutdown uint8 = 8
	// StatusReadOnly reports a mutation sent to a read-only follower;
	// writes must go to the primary.
	StatusReadOnly uint8 = 9
	// StatusWrongShard reports an op on a key range this server does
	// not own (it was migrated away, is mid-handoff, or never lived
	// here). The payload is an encoded ClusterMap naming the owner the
	// client should retry against — during the brief fenced window of a
	// live migration the named owner may itself redirect back until the
	// handoff commits, so clients retry with a small backoff. The op
	// was refused before any state change, so retrying is always safe.
	StatusWrongShard uint8 = 10
)

// Limits. MaxFrame bounds a single frame's payload in both directions;
// the scan and batch caps keep any one request's response under it
// (a full scan page is 5 + 16·MaxScanLimit bytes, a full batch
// response 10·MaxBatchOps bytes).
const (
	MaxFrame         = 1 << 20
	DefaultScanLimit = 1024
	MaxScanLimit     = 4096
	MaxBatchOps      = 8192
	headerLen        = 13 // len u32 + id u64 + op/status u8
)

// Protocol-level errors.
var (
	// ErrBadMagic reports a hello that did not start with Magic.
	ErrBadMagic = errors.New("wire: bad magic (not a blinkserver endpoint?)")
	// ErrVersion reports an unsupported protocol version.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrFrameTooLarge reports a frame exceeding MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	// ErrReadOnly is the sentinel for StatusReadOnly: the target is a
	// read-only follower and mutations must go to the primary.
	ErrReadOnly = errors.New("wire: read-only follower (writes must go to the primary)")
	// ErrWrongShard is the sentinel matched (via errors.Is) by the
	// *RedirectError a StatusWrongShard response decodes to.
	ErrWrongShard = errors.New("wire: wrong shard")
)

// Error is a server-reported failure that does not map to one of the
// module's sentinel errors.
type Error struct {
	Code uint8
	Msg  string
}

// Error implements error.
func (e *Error) Error() string {
	name := ""
	switch e.Code {
	case StatusBadRequest:
		name = "bad request"
	case StatusTooLarge:
		name = "too large"
	case StatusInternal:
		name = "internal"
	case StatusShutdown:
		name = "shutting down"
	case StatusReadOnly:
		name = "read-only follower"
	case StatusWrongShard:
		name = "wrong shard"
	default:
		name = fmt.Sprintf("status %d", e.Code)
	}
	if e.Msg == "" {
		return "wire: " + name
	}
	return "wire: " + name + ": " + e.Msg
}

// ErrStatus maps an engine error to its wire status code.
func ErrStatus(err error) uint8 {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, base.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, base.ErrDuplicate):
		return StatusDuplicate
	case errors.Is(err, base.ErrClosed):
		return StatusClosed
	case errors.Is(err, base.ErrCorrupt):
		return StatusCorrupt
	case errors.Is(err, ErrReadOnly):
		return StatusReadOnly
	default:
		return StatusInternal
	}
}

// RedirectError is the error form of StatusWrongShard. Payload is the
// raw response payload — an encoded ClusterMap naming the range's
// owner — preserved so a cluster-aware client can refresh its map and
// retry; errors.Is(err, ErrWrongShard) matches it.
type RedirectError struct{ Payload []byte }

// Error implements error.
func (e *RedirectError) Error() string {
	return "wire: wrong shard (range not owned by this server)"
}

// Is makes errors.Is(err, ErrWrongShard) true for any RedirectError.
func (e *RedirectError) Is(target error) bool { return target == ErrWrongShard }

// StatusError maps a wire status code back to an error. Codes with a
// module sentinel return it (so errors.Is matches across the wire);
// StatusWrongShard returns *RedirectError preserving the map payload;
// the rest return *Error carrying msg.
func StatusError(code uint8, msg string) error {
	switch code {
	case StatusOK:
		return nil
	case StatusNotFound:
		return base.ErrNotFound
	case StatusDuplicate:
		return base.ErrDuplicate
	case StatusClosed:
		return base.ErrClosed
	case StatusCorrupt:
		return base.ErrCorrupt
	case StatusReadOnly:
		return ErrReadOnly
	case StatusWrongShard:
		return &RedirectError{Payload: []byte(msg)}
	default:
		return &Error{Code: code, Msg: msg}
	}
}

// WriteHello writes the 8-byte hello advertising Version.
func WriteHello(w io.Writer) error {
	var b [helloLen]byte
	copy(b[:4], Magic[:])
	binary.LittleEndian.PutUint16(b[4:6], Version)
	_, err := w.Write(b[:])
	return err
}

// ReadHello reads and validates the peer's hello. ErrBadMagic and
// ErrVersion — any version other than Version — are the two rejections.
func ReadHello(r io.Reader) error {
	var b [helloLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	if [4]byte(b[:4]) != Magic {
		return ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != Version {
		return fmt.Errorf("%w: peer speaks %d, this build speaks %d", ErrVersion, v, Version)
	}
	return nil
}

// WriteFrame writes one frame — request or response, the shape is the
// same — with the given id, op-or-status byte and payload.
func WriteFrame(w io.Writer, id uint64, code uint8, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var h [headerLen]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(headerLen-4+len(payload)))
	binary.LittleEndian.PutUint64(h[4:12], id)
	h[12] = code
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one complete frame from br. The returned payload
// reuses buf when it fits (callers that keep a payload across frames
// must copy it). A frame longer than MaxFrame returns
// ErrFrameTooLarge with the stream positioned unusably — the
// connection must be dropped.
func ReadFrame(br *bufio.Reader, buf []byte) (id uint64, code uint8, payload []byte, err error) {
	// The header is parsed in place via Peek/Discard rather than
	// ReadFull into a local array: a local passed through io.ReadFull's
	// interface argument escapes, costing one heap allocation per
	// frame — on the hottest read path of both the server and the
	// client.
	h, err := br.Peek(headerLen)
	if err != nil {
		if len(h) == 0 {
			return 0, 0, nil, err // clean close between frames
		}
		if len(h) >= 4 {
			// Enough for the length prefix: report an invalid length
			// over a torn header.
			n := binary.LittleEndian.Uint32(h[0:4])
			if n < headerLen-4 {
				return 0, 0, nil, fmt.Errorf("wire: frame length %d below header", n)
			}
			if n > MaxFrame+headerLen-4 {
				return 0, 0, nil, ErrFrameTooLarge
			}
		}
		return 0, 0, nil, unexpectEOF(err)
	}
	n := binary.LittleEndian.Uint32(h[0:4])
	if n < headerLen-4 {
		return 0, 0, nil, fmt.Errorf("wire: frame length %d below header", n)
	}
	if n > MaxFrame+headerLen-4 {
		return 0, 0, nil, ErrFrameTooLarge
	}
	id = binary.LittleEndian.Uint64(h[4:12])
	code = h[12]
	br.Discard(headerLen)
	pl := int(n) - (headerLen - 4)
	if pl == 0 {
		return id, code, nil, nil
	}
	if pl <= cap(buf) {
		payload = buf[:pl]
	} else {
		payload = make([]byte, pl)
	}
	if _, err = io.ReadFull(br, payload); err != nil {
		return 0, 0, nil, unexpectEOF(err)
	}
	return id, code, payload, nil
}

// unexpectEOF turns a mid-frame EOF into ErrUnexpectedEOF so callers
// can distinguish a clean close (between frames) from a torn frame.
func unexpectEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Buf is a tiny append-only encode buffer for payloads.
type Buf struct{ B []byte }

// Reset empties the buffer, keeping capacity.
func (b *Buf) Reset() { b.B = b.B[:0] }

// U8 appends one byte.
func (b *Buf) U8(v uint8) { b.B = append(b.B, v) }

// U16 appends a little-endian uint16.
func (b *Buf) U16(v uint16) { b.B = binary.LittleEndian.AppendUint16(b.B, v) }

// U32 appends a little-endian uint32.
func (b *Buf) U32(v uint32) { b.B = binary.LittleEndian.AppendUint32(b.B, v) }

// U64 appends a little-endian uint64.
func (b *Buf) U64(v uint64) { b.B = binary.LittleEndian.AppendUint64(b.B, v) }

// Dec is the matching decode cursor. Failed reads set Err and return
// zeros, so a payload can be decoded with one error check at the end.
type Dec struct {
	B   []byte
	off int
	Err error
}

// fail records the first decode error.
func (d *Dec) fail() {
	if d.Err == nil {
		d.Err = errors.New("wire: short payload")
	}
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	if d.Err != nil || d.off+1 > len(d.B) {
		d.fail()
		return 0
	}
	v := d.B[d.off]
	d.off++
	return v
}

// U16 reads a little-endian uint16.
func (d *Dec) U16() uint16 {
	if d.Err != nil || d.off+2 > len(d.B) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.B[d.off:])
	d.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	if d.Err != nil || d.off+4 > len(d.B) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.B[d.off:])
	d.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	if d.Err != nil || d.off+8 > len(d.B) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.B[d.off:])
	d.off += 8
	return v
}

// Done reports whether the cursor consumed the payload exactly.
func (d *Dec) Done() bool { return d.Err == nil && d.off == len(d.B) }

// Cluster-map limits: a map is one entry per range (the servers' shard
// count) and each owner is a host:port string.
const (
	MaxClusterRanges = 1 << 12
	MaxAddrLen       = 255
)

// ClusterMap is the versioned range-ownership table exchanged via
// OpClusterMap responses and StatusWrongShard redirect payloads.
// Owners[i] is the address of the server owning range i of the static
// range partition (range i = [i·stride, (i+1)·stride) with stride =
// ^uint64(0)/len + 1, matching the router's shard spans). Version
// increases with every completed migration; a client replaces its map
// when it sees a newer one.
type ClusterMap struct {
	Version uint64
	Owners  []string
}

// Range returns the index of the range containing k.
func (m *ClusterMap) Range(k uint64) int {
	if len(m.Owners) <= 1 {
		return 0
	}
	stride := ^uint64(0)/uint64(len(m.Owners)) + 1
	return int(k / stride)
}

// Clone returns a deep copy.
func (m *ClusterMap) Clone() *ClusterMap {
	return &ClusterMap{Version: m.Version, Owners: append([]string(nil), m.Owners...)}
}

// AppendClusterMap encodes m: version u64 | ranges u32 | ranges ×
// (len u16 | owner bytes).
func AppendClusterMap(b *Buf, m *ClusterMap) {
	b.U64(m.Version)
	b.U32(uint32(len(m.Owners)))
	for _, o := range m.Owners {
		b.U16(uint16(len(o)))
		b.B = append(b.B, o...)
	}
}

// DecodeClusterMap decodes an AppendClusterMap payload.
func DecodeClusterMap(payload []byte) (*ClusterMap, error) {
	d := Dec{B: payload}
	m := &ClusterMap{Version: d.U64()}
	n := d.U32()
	if d.Err == nil && (n == 0 || n > MaxClusterRanges) {
		return nil, fmt.Errorf("wire: cluster map with %d ranges", n)
	}
	for i := uint32(0); i < n && d.Err == nil; i++ {
		l := int(d.U16())
		if l > MaxAddrLen {
			return nil, fmt.Errorf("wire: cluster map owner %d bytes long", l)
		}
		if d.off+l > len(d.B) {
			d.fail()
			break
		}
		m.Owners = append(m.Owners, string(d.B[d.off:d.off+l]))
		d.off += l
	}
	if d.Err != nil || !d.Done() {
		if d.Err != nil {
			return nil, d.Err
		}
		return nil, errors.New("wire: cluster map with trailing bytes")
	}
	return m, nil
}
