package main

import (
	"errors"
	"os/exec"
	"syscall"
	"testing"

	"blinktree/internal/base"
)

// fake is a recovered state to verify: a map, and a Len that can be
// made to lie by lenAdj.
type fake struct {
	m      map[base.Key]base.Value
	lenAdj int
}

func (f *fake) Search(k base.Key) (base.Value, error) {
	if v, ok := f.m[k]; ok {
		return v, nil
	}
	return 0, base.ErrNotFound
}

func (f *fake) Range(lo, hi base.Key, fn func(base.Key, base.Value) bool) error {
	for k, v := range f.m {
		if lo <= k && k <= hi && !fn(k, v) {
			break
		}
	}
	return nil
}

func (f *fake) Len() (int, error) { return len(f.m) + f.lenAdj, nil }
func (f *fake) Upsert(base.Key, base.Value) (base.Value, bool, error) {
	return 0, false, errors.ErrUnsupported
}
func (f *fake) Delete(base.Key) error           { return errors.ErrUnsupported }
func (f *fake) Incr(base.Key, base.Value) error { return errors.ErrUnsupported }
func (f *fake) Checkpoint() error               { return errors.ErrUnsupported }

// TestVerify runs verify over fabricated recovered states. Each failing
// case is caught by one rule: the lost write and the absent-after-
// failover key only by the point pass, the phantom only by the scan (its
// Len is made to agree), the Len mismatch only by the count. The
// passing cases are what the ambiguous attempts and, in prefix mode
// only, the acked history admit.
func TestVerify(t *testing.T) {
	history := func(o *oracle, f *fake) {
		o.barrier()
		o.ack(0, 1, state{11, true})
		o.ack(0, 1, state{12, true})
		f.m[o.key(1)] = 11 // the follower had shipped the first write only
	}
	for _, tc := range []struct {
		name   string
		prefix bool
		mutate func(o *oracle, f *fake)
		ok     bool
	}{
		{"exact", false, func(*oracle, *fake) {}, true},
		{"lost acked write", false, func(o *oracle, f *fake) { delete(f.m, o.key(1)) }, false},
		{"wrong value", false, func(o *oracle, f *fake) { f.m[o.key(1)]++ }, false},
		{"deleted key back", false, func(o *oracle, f *fake) { f.m[o.key(2)] = 20 }, false},
		{"phantom pair", false, func(o *oracle, f *fake) { f.m[o.key(3)], f.lenAdj = 7, -1 }, false},
		{"phantom off the key grid", false, func(o *oracle, f *fake) { f.m[o.key(3)+1], f.lenAdj = 7, -1 }, false},
		{"Len mismatch", false, func(o *oracle, f *fake) { f.lenAdj = 1 }, false},
		{"in-flight attempt landed", false, func(o *oracle, f *fake) {
			o.attempt(0, 1, state{11, true})
			f.m[o.key(1)] = 11
		}, true},
		{"in-flight attempt lost", false, func(o *oracle, f *fake) { o.attempt(0, 1, state{11, true}) }, true},
		{"in-flight first write landed", false, func(o *oracle, f *fake) {
			o.attempt(1, keysPer+5, state{55, true})
			f.m[o.key(keysPer+5)] = 55
		}, true},
		{"history state, prefix mode", true, history, true},
		{"history state, exact mode", false, history, false},
		{"converged present, absent after failover", true, func(o *oracle, f *fake) {
			o.barrier()
			o.ack(0, 1, state{11, true})
			delete(f.m, o.key(1))
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := newOracle(2)
			o.ack(0, 1, state{10, true})
			o.ack(0, 2, state{20, true})
			o.ack(0, 2, state{}) // deleted
			o.ack(1, keysPer, state{30, true})
			f := &fake{m: map[base.Key]base.Value{o.key(1): 10, o.key(keysPer): 30}}
			tc.mutate(o, f)
			_, _, err := o.verify(f, tc.prefix)
			if tc.ok && err != nil {
				t.Fatalf("legal state rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("illegal state accepted")
			}
		})
	}
}

// TestKillAllReapsChildren: fatal's kill-all path must leave no child
// process behind.
func TestKillAllReapsChildren(t *testing.T) {
	c, err := start(exec.Command("sh", "-c", "echo LISTENING 127.0.0.1:1; exec sleep 60"))
	if err != nil {
		t.Fatal(err)
	}
	if c.addr != "127.0.0.1:1" {
		t.Fatalf("addr %q", c.addr)
	}
	killAll()
	select {
	case <-c.done:
	default:
		t.Fatal("killAll returned before the child was reaped")
	}
	if ws := c.cmd.ProcessState.Sys().(syscall.WaitStatus); ws.Signal() != syscall.SIGKILL {
		t.Fatalf("child ended with %v, want SIGKILL", c.cmd.ProcessState)
	}
	live.Lock()
	defer live.Unlock()
	if len(live.m) != 0 {
		t.Fatalf("%d children still registered", len(live.m))
	}
}
