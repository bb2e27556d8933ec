package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"slices"
	"sync"
	"syscall"
	"time"

	"blinktree/client"
	"blinktree/internal/cluster"
	"blinktree/internal/repl"
	"blinktree/internal/server"
	"blinktree/internal/shard"
)

// diskPageSize is the disk scenario's page size: small pages make the
// page count large at stress-sized data, so a fractional pool leaves
// most of the index on disk and every traversal races eviction.
const diskPageSize = 256

// spec is one server's configuration. The supervisor passes it to the
// child JSON-encoded after -child; the local reopen and the in-process
// scenario open the same options.
type spec struct {
	Shards, K, Compressors int
	Dir                    string // "" = volatile
	CacheBytes             int64  // > 0: serve through a buffer pool of this many bytes per shard
	Addr                   string // listen address; "" = an ephemeral loopback port
	Follow                 string // replicate this primary, read-only until promoted
	Initial                string // be a cluster member at Addr; Initial owns every range at first
	Verified               bool   // maintain a Merkle state root
}

func (s spec) options() shard.Options {
	o := shard.Options{MinPairs: s.K, CompressorWorkers: s.Compressors, Durable: s.Dir != "", Dir: s.Dir, Verified: s.Verified}
	if s.CacheBytes > 0 {
		o.DiskNative, o.CacheBytes, o.PageSize = true, s.CacheBytes, diskPageSize
	}
	return o
}

// runChild is the process the supervisor spawns, so a scenario can
// kill -9 a real server: it serves spec until SIGTERM, after
// announcing "LISTENING <addr>" on stdout.
func runChild(arg string) {
	var s spec
	if err := json.Unmarshal([]byte(arg), &s); err != nil {
		fatal("child spec", err)
	}
	r, err := shard.NewRouter(s.Shards, s.options())
	if err != nil {
		fatal("child open", err)
	}
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	cfg := server.Config{Addr: cmp.Or(s.Addr, "127.0.0.1:0")}
	if s.Verified {
		cfg.RootEvery = 250 * time.Millisecond // so the audit sees root checks quickly
	}
	if s.Initial != "" {
		node, err := cluster.NewNode(cluster.NodeConfig{Self: s.Addr, Shards: s.Shards, InitialOwner: s.Initial, Dir: s.Dir, Logf: logf})
		if err != nil {
			fatal("child cluster", err)
		}
		if err := node.ReclaimRemote(r); err != nil {
			fatal("child cluster reclaim", err)
		}
		node.ResolveFences(r)
		cfg.Cluster = node
	}
	var follower *repl.Follower
	if s.Follow != "" {
		// Alarm lines must reach the audit's captured stderr.
		if follower, err = repl.NewFollower(r, repl.FollowerConfig{Primary: s.Follow, Dir: s.Dir, Logf: logf}); err != nil {
			fatal("child follower", err)
		}
		cfg.ReadOnly = true
		cfg.OnPromote = follower.Stop
	}
	srv := server.New(r, cfg)
	if err := srv.Start(); err != nil {
		fatal("child listen", err)
	}
	if follower != nil {
		follower.Start()
	}
	fmt.Printf("LISTENING %s\n", srv.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	<-sig
	if follower != nil {
		follower.Stop()
	}
	srv.Close()
	r.Close()
}

// child is one supervised process.
type child struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process is reaped
}

// live holds every child not yet reaped, so fatal can kill them all.
var live = struct {
	sync.Mutex
	m map[*child]bool
}{m: map[*child]bool{}}

// spawn re-executes this binary as a server child of spec s; stderr
// captures the child's stderr (nil: inherit ours).
func spawn(s spec, stderr io.Writer) (*child, error) {
	b, _ := json.Marshal(s) // a spec always encodes
	cmd := exec.Command(os.Args[0], "-child", string(b))
	cmd.Stderr = cmp.Or[io.Writer](stderr, os.Stderr)
	return start(cmd)
}

func mustSpawn(s spec) *child {
	c, err := spawn(s, nil)
	if err != nil {
		fatal("spawn", err)
	}
	return c
}

// start runs cmd as a supervised child and waits for the
// "LISTENING <addr>" line on its stdout. One goroutine drains stdout,
// reaps the process, unregisters it and closes done.
func start(cmd *exec.Cmd) (*child, error) {
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	live.Lock()
	live.m[c] = true
	live.Unlock()
	addr := make(chan string, 1)
	go func() {
		for sc := bufio.NewScanner(out); sc.Scan(); {
			var a string
			if n, _ := fmt.Sscanf(sc.Text(), "LISTENING %s", &a); n == 1 {
				select {
				case addr <- a:
				default:
				}
			}
		}
		_ = cmd.Wait() // a killed child's exit status says nothing
		live.Lock()
		delete(live.m, c)
		live.Unlock()
		close(c.done)
	}()
	select {
	case c.addr = <-addr:
		return c, nil
	case <-c.done:
		return nil, errors.New("server child exited before announcing its address")
	}
}

// stop ends the child with SIGTERM (SIGKILL after 10 s) and reaps it.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.kill9()
	}
}

// kill9 is the crash: SIGKILL, what a power cut looks like to the WAL.
func (c *child) kill9() {
	_ = c.cmd.Process.Kill() // fails only if it already exited
	<-c.done
}

// killAll kills and reaps every live child.
func killAll() {
	live.Lock()
	cs := slices.Collect(maps.Keys(live.m))
	live.Unlock()
	for _, c := range cs {
		c.kill9()
	}
}

// dial connects to a server child. Reads are not retried, so after a
// kill they fail at once like the writes.
func dial(addr string) *client.Client {
	cl, err := client.Dial(addr, client.Options{Conns: 2, RetryReads: -1})
	if err != nil {
		fatal("dial "+addr, err)
	}
	return cl
}

// poll calls f every 50 ms until it succeeds; after within, its error
// is fatal.
func poll(what string, within time.Duration, f func() error) {
	for deadline := time.Now().Add(within); ; time.Sleep(50 * time.Millisecond) {
		err := f()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			fatal(what, err)
		}
	}
}

// open opens s's directory in process and checks the structural
// invariants.
func open(s spec) *shard.Router {
	r, err := shard.NewRouter(s.Shards, s.options())
	if err != nil {
		fatal("open "+s.Dir, err)
	}
	if err := r.Check(); err != nil {
		fatal("check "+s.Dir, err)
	}
	return r
}
