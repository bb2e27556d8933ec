// Package cluster turns "primary + replica" into "cluster": it owns
// the versioned range-ownership map a cluster of servers shares with
// clients, and performs live migration of a shard's key range from one
// server to another with no lost or phantom acked writes.
//
// The design is the Lehman–Yao argument one level up. Inside a tree,
// readers tolerate concurrent structural change because a split leaves
// a right-link to chase; inside a cluster, clients tolerate a range
// changing servers because a refused op leaves a redirect to chase
// (StatusWrongShard carrying the owner's address). Both sides keep
// serving while the layout changes underneath.
//
// A migration is the replication substrate's state transfer (package
// repl, transfer.go: fuzzy snapshot, WAL-tail chase, idempotent
// at-least-once apply) with an ownership flip at the end. The source
// bootstraps a repl.Source concurrent with writers, drains the tail
// the snapshot rotation left behind, then flips ownership under a
// brief write fence: new writes for the range are refused with a
// redirect, in-flight batches drain behind an RWMutex barrier, the
// final tail ships, and the target takes over. An acknowledged write
// is therefore always either in the shipped prefix or
// refused-and-retried — never silently dropped.
//
// Crash safety without consensus: ownership changes persist on both
// sides in a small CRC-guarded map file, in an order that keeps every
// crash window recoverable by simply re-triggering the migration. The
// target persists "I own it" before acking the handoff; the source
// persists a fenced "migrating out to T" marker before shipping the
// final tail and only un-fences on failure when the handoff frame
// cannot have been sent. Re-triggering resolves every outcome: a
// target that already owns the range says so in the ingest handshake
// (the source adopts the result), and a fenced source with an
// unactivated target still holds the range's full frozen state and
// re-runs the stream from scratch.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/internal/wal"
	"blinktree/internal/wire"
)

// MapFile is the name of the durable ownership record, stored beside
// the per-shard WAL directories.
const MapFile = "clustermap"

// Range serving states, the fast-path word the serving layer checks
// per op.
const (
	// rangeServing: this node owns the range and accepts ops.
	rangeServing uint32 = iota
	// rangeFenced: this node owns the range's data but a migration is
	// past the point of no return — ops are refused with a redirect to
	// the pending target until the handoff resolves.
	rangeFenced
	// rangeRemote: another node owns the range; ops are refused with a
	// redirect to it. Local data for the range, if any, is garbage
	// awaiting the next wipe.
	rangeRemote
)

// Migration phases, exported as a /metrics gauge.
const (
	PhaseIdle uint32 = iota
	PhaseSnapshot
	PhaseChase
	PhaseFence
)

// PhaseName names a migration phase for metrics and logs.
func PhaseName(p uint32) string {
	switch p {
	case PhaseSnapshot:
		return "snapshot"
	case PhaseChase:
		return "chase"
	case PhaseFence:
		return "fence"
	default:
		return "idle"
	}
}

// NodeConfig configures a cluster node. Self and Shards are required.
type NodeConfig struct {
	// Self is this server's advertised address — the string other
	// members and clients reach it by, and the identity recorded in
	// cluster maps.
	Self string
	// Shards is the number of ranges (must match the router's shard
	// count on every member).
	Shards int
	// InitialOwner is the address owning every range when no persisted
	// map exists; empty means Self. A node whose InitialOwner is
	// another member boots owning nothing and redirects everything
	// until ranges are migrated to it.
	InitialOwner string
	// Dir is where the ownership map persists (the server's durability
	// directory). Empty keeps the map in memory only — fine for tests,
	// unsafe for a real cluster restart.
	Dir string
	// Logf receives migration-level notices. Default: discard.
	Logf func(format string, args ...any)
}

// Node is one server's cluster state: the versioned ownership map, the
// per-range serving word the hot path checks, the write fence, and the
// migration engine (source and target sides).
type Node struct {
	self   string
	shards int
	dir    string
	logf   func(format string, args ...any)

	// state[i] is the fast-path serving word for range i
	// (rangeServing/rangeFenced/rangeRemote), readable without mu.
	state []atomic.Uint32

	// fenceMu is the drain barrier between batch appliers and the
	// fence flip: every applier holds it for read around
	// check-ownership-then-apply, and the fence takes it for write
	// once after marking the range fenced, so when Lock returns no
	// in-flight batch can still append to the fenced range's WAL.
	fenceMu sync.RWMutex

	// mu guards the slow-path map state and its persistence.
	mu      sync.Mutex
	version uint64
	owners  []string // owner address per range
	pending []string // fenced ranges' handoff target, "" otherwise

	// migMu serializes migrations through this node (either side).
	migMu sync.Mutex

	// Metrics.
	migShard     atomic.Int64 // range being migrated out, -1 when idle
	phase        atomic.Uint32
	shipped      atomic.Uint64 // records shipped out (source side)
	ingested     atomic.Uint64 // records applied in (target side)
	migrations   atomic.Uint64 // completed outbound handoffs
	takeovers    atomic.Uint64 // completed inbound handoffs
	redirects    atomic.Uint64 // WrongShard refusals served
	lastFenceNS  atomic.Int64  // duration of the last write fence
	totalFenceNS atomic.Int64
}

// NewNode builds a node, loading a persisted ownership map from
// cfg.Dir when present (a missing or torn file falls back to the
// configured initial layout; a corrupt-but-well-formed one is trusted
// only if its CRC passes).
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: NodeConfig.Self required")
	}
	if cfg.Shards <= 0 {
		return nil, errors.New("cluster: NodeConfig.Shards must be positive")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	n := &Node{
		self:    cfg.Self,
		shards:  cfg.Shards,
		dir:     cfg.Dir,
		logf:    cfg.Logf,
		state:   make([]atomic.Uint32, cfg.Shards),
		version: 1,
		owners:  make([]string, cfg.Shards),
		pending: make([]string, cfg.Shards),
	}
	n.migShard.Store(-1)
	initial := cfg.InitialOwner
	if initial == "" {
		initial = cfg.Self
	}
	for i := range n.owners {
		n.owners[i] = initial
	}
	if cfg.Dir != "" {
		n.loadMap(filepath.Join(cfg.Dir, MapFile))
	}
	for i := range n.owners {
		n.state[i].Store(n.deriveState(i))
	}
	return n, nil
}

// deriveState computes range i's serving word from the map (mu held or
// construction-time).
func (n *Node) deriveState(i int) uint32 {
	switch {
	case n.owners[i] != n.self:
		return rangeRemote
	case n.pending[i] != "":
		return rangeFenced
	default:
		return rangeServing
	}
}

// Self returns the node's advertised address.
func (n *Node) Self() string { return n.self }

// Shards returns the number of ranges.
func (n *Node) Shards() int { return n.shards }

// Serving reports whether ops on range sh should be accepted here.
// This is the per-op hot-path check: one atomic load.
func (n *Node) Serving(sh int) bool {
	return n.state[sh].Load() == rangeServing
}

// FenceRLock/FenceRUnlock bracket a check-ownership-then-apply section
// in the serving layer. See fenceMu.
func (n *Node) FenceRLock()   { n.fenceMu.RLock() }
func (n *Node) FenceRUnlock() { n.fenceMu.RUnlock() }

// Map returns a copy of the node's current ownership map.
func (n *Node) Map() *wire.ClusterMap {
	n.mu.Lock()
	defer n.mu.Unlock()
	return &wire.ClusterMap{Version: n.version, Owners: append([]string(nil), n.owners...)}
}

// MapPayload returns the encoded OpClusterMap response.
func (n *Node) MapPayload() []byte {
	m := n.Map()
	var b wire.Buf
	wire.AppendClusterMap(&b, m)
	return b.B
}

// RedirectPayload returns the encoded StatusWrongShard payload for a
// refused op on range sh: the current map with fenced ranges rewritten
// to their pending targets, so a client chasing the redirect lands on
// the server that is about to own the range.
func (n *Node) RedirectPayload(sh int) []byte {
	n.redirects.Add(1)
	n.mu.Lock()
	m := wire.ClusterMap{Version: n.version, Owners: append([]string(nil), n.owners...)}
	for i, p := range n.pending {
		if p != "" {
			m.Owners[i] = p
		}
	}
	n.mu.Unlock()
	var b wire.Buf
	wire.AppendClusterMap(&b, &m)
	return b.B
}

// Version returns the current map version.
func (n *Node) Version() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.version
}

// Stats is a snapshot of a node's cluster counters.
type Stats struct {
	// Self is the advertised address; Version the map version.
	Self    string
	Version uint64
	// Owned counts ranges currently served here; Fenced those frozen
	// mid-handoff.
	Owned, Fenced int
	// MigratingShard is the range being migrated out (-1 idle) and
	// Phase its phase (PhaseIdle..PhaseFence).
	MigratingShard int64
	Phase          uint32
	// Shipped/Ingested count migration records sent/applied;
	// Migrations/Takeovers completed outbound/inbound handoffs;
	// Redirects WrongShard refusals served.
	Shipped, Ingested     uint64
	Migrations, Takeovers uint64
	Redirects             uint64
	LastFence, FenceTotal time.Duration
}

// ClusterStats returns the node's counters.
func (n *Node) ClusterStats() Stats {
	s := Stats{
		Self:           n.self,
		MigratingShard: n.migShard.Load(),
		Phase:          n.phase.Load(),
		Shipped:        n.shipped.Load(),
		Ingested:       n.ingested.Load(),
		Migrations:     n.migrations.Load(),
		Takeovers:      n.takeovers.Load(),
		Redirects:      n.redirects.Load(),
		LastFence:      time.Duration(n.lastFenceNS.Load()),
		FenceTotal:     time.Duration(n.totalFenceNS.Load()),
	}
	n.mu.Lock()
	s.Version = n.version
	for i := range n.owners {
		switch n.deriveState(i) {
		case rangeServing:
			s.Owned++
		case rangeFenced:
			s.Fenced++
		}
	}
	n.mu.Unlock()
	return s
}

// setFenced marks range sh as migrating out to target and persists the
// marker. After this the range's data is frozen here until the handoff
// resolves (commitOut, adopt, or unfence).
func (n *Node) setFenced(sh int, target string) error {
	n.mu.Lock()
	n.pending[sh] = target
	n.state[sh].Store(rangeFenced)
	err := n.persistMapLocked()
	n.mu.Unlock()
	return err
}

// unfence reverts a fenced range to serving — legal only while the
// handoff frame cannot have been sent (the target cannot own the
// range).
func (n *Node) unfence(sh int) {
	n.mu.Lock()
	n.pending[sh] = ""
	n.state[sh].Store(rangeServing)
	if err := n.persistMapLocked(); err != nil {
		n.logf("cluster: persist map after unfence: %v", err)
	}
	n.mu.Unlock()
}

// commitOut records a completed outbound handoff of range sh.
func (n *Node) commitOut(sh int, target string, version uint64) error {
	n.mu.Lock()
	n.owners[sh] = target
	n.pending[sh] = ""
	if version > n.version {
		n.version = version
	}
	n.state[sh].Store(rangeRemote)
	err := n.persistMapLocked()
	n.mu.Unlock()
	return err
}

// adopt records that the target already owns range sh (a prior handoff
// committed on its side before we crashed or lost the ack).
func (n *Node) adopt(sh int, target string, targetVersion uint64) error {
	n.logf("cluster: adopting committed handoff of range %d to %s", sh, target)
	return n.commitOut(sh, target, targetVersion)
}

// activate records a completed inbound handoff: this node now owns
// range sh. Persisted before the caller acks the handoff — the ack is
// the source's permission to stop owning the range, so our claim must
// be durable first.
func (n *Node) activate(sh int, version uint64) error {
	n.mu.Lock()
	n.owners[sh] = n.self
	n.pending[sh] = ""
	if version > n.version {
		n.version = version
	}
	n.state[sh].Store(rangeServing)
	err := n.persistMapLocked()
	n.mu.Unlock()
	if err == nil {
		n.takeovers.Add(1)
	}
	return err
}

// OwnedInfo reports, under one lock, whether this node serves range sh
// and the fenced-pending target if any — the ingest handshake's view.
func (n *Node) OwnedInfo(sh int) (owner string, pending string, version uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.owners[sh], n.pending[sh], n.version
}

// mapMagic/mapVersion identify the persisted map file format.
const (
	mapMagic   = "BLCM"
	mapVersion = 1
)

// persistMapLocked atomically rewrites the map file (no-op without a
// Dir). Owner and pending addresses equal to self are stored as "" so
// a node restarted under a new address (ephemeral ports in tests)
// still recognizes its own ranges.
func (n *Node) persistMapLocked() error {
	if n.dir == "" {
		return nil
	}
	buf := make([]byte, 0, 16+n.shards*8)
	buf = append(buf, mapMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, mapVersion)
	buf = binary.LittleEndian.AppendUint64(buf, n.version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n.shards))
	appendAddr := func(a string) {
		if a == n.self {
			a = ""
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(a)))
		buf = append(buf, a...)
	}
	for i := 0; i < n.shards; i++ {
		appendAddr(n.owners[i])
		appendAddr(n.pending[i])
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli)))
	return wal.WriteFileDurable(filepath.Join(n.dir, MapFile), buf)
}

// loadMap restores a persisted map; a missing, torn, or mismatched
// file leaves the configured initial layout in place.
func (n *Node) loadMap(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	if len(data) < 24 || string(data[0:4]) != mapMagic ||
		binary.LittleEndian.Uint32(data[4:8]) != mapVersion {
		n.logf("cluster: ignoring unrecognized map file %s", path)
		return
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != sum {
		n.logf("cluster: ignoring map file %s with bad checksum", path)
		return
	}
	version := binary.LittleEndian.Uint64(data[8:16])
	shards := int(binary.LittleEndian.Uint32(data[16:20]))
	if shards != n.shards {
		n.logf("cluster: ignoring map file for %d shards (node has %d)", shards, n.shards)
		return
	}
	off := 20
	readAddr := func() (string, bool) {
		if off+2 > len(body) {
			return "", false
		}
		l := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+l > len(body) {
			return "", false
		}
		a := string(body[off : off+l])
		off += l
		if a == "" {
			a = n.self
		}
		return a, true
	}
	owners := make([]string, shards)
	pending := make([]string, shards)
	for i := 0; i < shards; i++ {
		var ok bool
		if owners[i], ok = readAddr(); !ok {
			return
		}
		if pending[i], ok = readAddr(); !ok {
			return
		}
		if pending[i] == n.self {
			pending[i] = "" // "" round-trips as self; pending is never self
		}
	}
	if off != len(body) {
		return
	}
	n.version = version
	n.owners = owners
	n.pending = pending
}

// errNotOwner rejects a migration of a range this node does not own.
var errNotOwner = errors.New("cluster: not the range's owner")

// validShard validates a range index.
func (n *Node) validShard(sh int) error {
	if sh < 0 || sh >= n.shards {
		return fmt.Errorf("cluster: range %d out of [0,%d)", sh, n.shards)
	}
	return nil
}
