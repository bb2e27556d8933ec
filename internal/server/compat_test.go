package server

import (
	"bufio"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"blinktree/internal/shard"
	"blinktree/internal/wire"
)

// TestHelloOneVersion pins the hello contract: the server answers the
// one version this build speaks, and drops — without an answer — a
// connection that opens with the wrong magic or any other version,
// older or newer.
func TestHelloOneVersion(t *testing.T) {
	s, _, _ := start(t, 2, Config{}, shard.Options{})

	dial := func(magic [4]byte, v uint16) *bufio.Reader {
		t.Helper()
		nc, err := net.DialTimeout("tcp", s.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		hello := binary.LittleEndian.AppendUint16(magic[:], v)
		if _, err := nc.Write(append(hello, 0, 0)); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		return bufio.NewReader(nc)
	}

	if err := wire.ReadHello(dial(wire.Magic, wire.Version)); err != nil {
		t.Fatalf("current hello refused: %v", err)
	}
	for _, v := range []uint16{wire.Version - 1, wire.Version + 1} {
		if _, err := dial(wire.Magic, v).ReadByte(); err == nil {
			t.Fatalf("server answered a v%d hello; want the connection dropped", v)
		}
	}
	if _, err := dial([4]byte{'H', 'T', 'T', 'P'}, wire.Version).ReadByte(); err == nil {
		t.Fatal("server answered a bad-magic hello; want the connection dropped")
	}
}
