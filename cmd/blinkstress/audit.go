package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"blinktree/client"
)

// runAudit proves that verified replication detects corruption that
// checksums cannot. A verified primary and follower replicate cleanly;
// then, trial by trial, the follower's directory is restored from a
// pristine copy and one value byte of a checkpoint snapshot or of a WAL
// record is flipped, with the enclosing CRC recomputed:
//
//   - a tampered checkpoint must be refused at recovery (its stored
//     state root no longer matches the recomputed one);
//   - a tampered WAL record survives recovery (the root file does not
//     cover the log suffix) but must raise the divergence alarm at the
//     next root the primary publishes, after which the follower
//     replicates nothing: a sentinel write must not reach it.
//
// A clean control restart must raise no alarm and keep replicating.
func runAudit(c *config) {
	fdir, pristine := filepath.Join(c.dir, "follower"), filepath.Join(c.dir, "pristine")
	ps := c.spec(filepath.Join(c.dir, "primary"))
	ps.Verified = true
	primary := mustSpawn(ps)
	defer primary.stop()
	cl := dial(primary.addr)
	defer cl.Close()
	fs := c.spec(fdir)
	fs.Verified, fs.Follow = true, primary.addr

	// Keys spread over the key space, so every shard holds pairs in both
	// its checkpoint and its WAL suffix.
	const base, suffix = 4000, 500
	stride := ^uint64(0)/(base+suffix) + 1
	write := func(from, to, mul uint64) {
		for i := from; i < to; i++ {
			if _, _, err := cl.Upsert(bg, client.Key(i*stride), client.Value(i*mul+1)); err != nil {
				fatal("audit write", err)
			}
		}
	}
	// The follower's stderr goes to a file, read back for alarm lines.
	logPath := filepath.Join(c.dir, "follower.log")
	startFollower := func() (*child, error) {
		log, err := os.Create(logPath)
		if err != nil {
			fatal("follower log", err)
		}
		defer log.Close()
		return spawn(fs, log)
	}
	followerLog := func() string {
		b, _ := os.ReadFile(logPath) // a missing log reads as empty: no alarm
		return string(b)
	}
	// rootsEqual waits for the follower to reach the primary's root and
	// fails on any alarm it raised meanwhile: there was nothing to find.
	rootsEqual := func(clF *client.Client, what string) {
		poll("audit: "+what, 30*time.Second, func() error {
			pr, err1 := cl.Root(bg)
			fr, err2 := clF.Root(bg)
			if err1 != nil || err2 != nil || pr != fr {
				return fmt.Errorf("roots differ: primary %x, follower %x (errs %v, %v)", pr[:8], fr[:8], err1, err2)
			}
			return nil
		})
		if s := followerLog(); strings.Contains(s, "divergence") {
			fatal("audit", fmt.Errorf("false alarm at %s:\n%s", what, s))
		}
	}

	// Clean phase. The follower checkpoints once the live stream has
	// converged, so its directory holds a root-covered snapshot; then a
	// suffix of fresh keys, each written once so a tampered record is
	// never masked by a later one, lands in its WAL only.
	write(0, base, 1)
	f, err := startFollower()
	if err != nil {
		fatal("spawn follower", err)
	}
	clF := dial(f.addr)
	rootsEqual(clF, "initial convergence")
	write(0, 1000, 3)
	rootsEqual(clF, "stream convergence")
	if err := clF.Checkpoint(bg); err != nil {
		fatal("follower checkpoint", err)
	}
	write(base, base+suffix, 1)
	rootsEqual(clF, "suffix convergence")
	clF.Close()
	f.stop()
	if err := os.CopyFS(pristine, os.DirFS(fdir)); err != nil {
		fatal("copy follower dir", err)
	}
	restore := func() {
		if err := os.RemoveAll(fdir); err != nil {
			fatal("restore", err)
		}
		if err := os.CopyFS(fdir, os.DirFS(pristine)); err != nil {
			fatal("restore", err)
		}
	}

	// Trial 0 is the control: a clean restart must stay silent and keep
	// replicating a sentinel write.
	sentinel := client.Key(^uint64(0) - 1)
	rng := rand.New(rand.NewSource(7))
	for i, kind := range []string{"control", "checkpoint", "checkpoint", "checkpoint", "wal", "wal", "wal"} {
		restore()
		what, err := kind, error(nil)
		switch kind {
		case "checkpoint":
			what, err = tamperCheckpoint(fdir, rng)
		case "wal":
			what, err = tamperWAL(fdir, rng)
		}
		if err != nil {
			fatal("tamper", err)
		}
		f, err := startFollower()
		if kind == "checkpoint" {
			if err == nil || !strings.Contains(followerLog(), "state root mismatch") {
				fatal("audit", fmt.Errorf("tampered checkpoint %s not refused by the root check (start: %v):\n%s", what, err, followerLog()))
			}
			fmt.Printf("      trial %d: checkpoint tamper (%s) refused at recovery\n", i, filepath.Base(what))
			continue
		}
		if err != nil {
			fatal("audit", fmt.Errorf("%s: follower did not start: %v\n%s", what, err, followerLog()))
		}
		if kind == "wal" {
			poll("audit", 30*time.Second, func() error {
				if !strings.Contains(followerLog(), "divergence") {
					return fmt.Errorf("tampered WAL %s: no divergence alarm:\n%s", what, followerLog())
				}
				return nil
			})
		}
		clF := dial(f.addr)
		v := client.Value(100 + i)
		if _, _, err := cl.Upsert(bg, sentinel, v); err != nil {
			fatal("audit", err)
		}
		if kind == "control" {
			rootsEqual(clF, "control replication")
			fmt.Println("      control: clean restart replicates, no alarm")
		} else {
			time.Sleep(750 * time.Millisecond)
			if got, err := clF.Search(bg, sentinel); err == nil && got == v {
				fatal("audit", fmt.Errorf("tampered WAL %s: follower kept replicating after the alarm", what))
			}
			fmt.Printf("      trial %d: WAL tamper (%s) detected at a published root, replication refused\n", i, filepath.Base(what))
		}
		clF.Close()
		f.stop()
	}
	fmt.Println("PASS: 6/6 checksum-clean tamperings detected (3 checkpoint, 3 WAL), zero false alarms")
}

// tamperCheckpoint flips one value byte of one pair in a checkpoint
// snapshot and rewrites the footer CRC, so only the Merkle root can
// tell. It returns the file tampered with.
func tamperCheckpoint(dir string, rng *rand.Rand) (string, error) {
	const headerLen, pairLen, footerLen = 16, 16, 12
	path, b, err := pickFile(dir, "checkpoint-", ".snap", headerLen+pairLen+footerLen)
	if err != nil {
		return "", err
	}
	pairs := (len(b) - headerLen - footerLen) / pairLen
	b[headerLen+rng.Intn(pairs)*pairLen+8+rng.Intn(8)] ^= 0xff
	// The footer CRC covers header and pairs (see internal/snap).
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-footerLen]))
	return path, os.WriteFile(path, b, 0o644)
}

// tamperWAL flips one value byte of one record in a WAL segment and
// recomputes the record's CRC-32C, so replay accepts it and recovery
// succeeds with silently diverged state. It returns the file tampered
// with.
func tamperWAL(dir string, rng *rand.Rand) (string, error) {
	const segHeaderLen, recHeaderLen, payloadLen = 16, 8, 17
	const recLen = recHeaderLen + payloadLen
	path, b, err := pickFile(dir, "wal-", ".seg", segHeaderLen+recLen)
	if err != nil {
		return "", err
	}
	off := segHeaderLen + rng.Intn((len(b)-segHeaderLen)/recLen)*recLen
	payload := b[off+recHeaderLen : off+recLen]
	payload[9+rng.Intn(8)] ^= 0xff
	binary.LittleEndian.PutUint32(b[off+4:off+8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return path, os.WriteFile(path, b, 0o644)
}

// pickFile reads the first file in dir, or one level down, named
// prefix…suffix with at least minSize bytes.
func pickFile(dir, prefix, suffix string, minSize int) (string, []byte, error) {
	top, _ := filepath.Glob(filepath.Join(dir, prefix+"*"+suffix)) // the patterns are well-formed
	sub, _ := filepath.Glob(filepath.Join(dir, "*", prefix+"*"+suffix))
	for _, path := range append(top, sub...) {
		if b, err := os.ReadFile(path); err != nil || len(b) >= minSize {
			return path, b, err
		}
	}
	return "", nil, fmt.Errorf("no %s*%s of at least %d bytes under %s", prefix, suffix, minSize, dir)
}
