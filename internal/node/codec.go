package node

import (
	"encoding/binary"
	"fmt"

	"blinktree/internal/base"
)

// Page layout (little endian). All multi-byte fields are fixed width so
// a node image is decodable without scanning.
//
//	offset  size  field
//	0       4     magic "BLNK"
//	4       1     flags (bit0 leaf, bit1 root, bit2 deleted,
//	              bit3 low finite, bit4 high finite, bit5 high +inf)
//	5       1     reserved
//	6       2     nkeys (uint16)
//	8       8     low key (meaningful iff low finite)
//	16      8     high key (meaningful iff high finite)
//	24      4     link page id
//	28      4     outlink page id
//	32      -     nkeys × 8-byte keys, then payload:
//	              leaf: nkeys × 8-byte values
//	              internal: (nkeys+1) × 4-byte child ids
//
// The prime block uses the same magic with flag bit6 set:
//
//	0   4  magic
//	4   1  flags (bit6 prime)
//	5   3  reserved
//	8   4  root page id
//	12  4  levels
//	16  -  levels × 4-byte leftmost ids
const (
	headerSize = 32

	flagLeaf       = 1 << 0
	flagRoot       = 1 << 1
	flagDeleted    = 1 << 2
	flagLowFinite  = 1 << 3
	flagHighFinite = 1 << 4
	flagHighPosInf = 1 << 5
	flagPrime      = 1 << 6
)

var magic = [4]byte{'B', 'L', 'N', 'K'}

// MaxPairs returns the largest pair count a node can hold in a page of
// pageSize bytes. Internal nodes are the tighter constraint only for
// tiny pages; both are computed and the minimum returned.
func MaxPairs(pageSize int) int {
	// leaf: header + n*8 + n*8
	leaf := (pageSize - headerSize) / 16
	// internal: header + n*8 + (n+1)*4
	internal := (pageSize - headerSize - 4) / 12
	if internal < leaf {
		return internal
	}
	return leaf
}

// EncodedSize returns the number of bytes the node occupies when
// encoded.
func EncodedSize(n *Node) int {
	if n.Leaf {
		return headerSize + len(n.Keys)*16
	}
	return headerSize + len(n.Keys)*8 + len(n.Children)*4
}

// encodable reports why n cannot be encoded into a page of size bytes,
// or nil. Encode checks it before it writes a byte, so a refused node
// leaves the page as it was.
func encodable(n *Node, size int) error {
	if need := EncodedSize(n); size < need {
		return fmt.Errorf("%w: node %d needs %d bytes, page is %d", base.ErrCorrupt, n.ID, need, size)
	}
	if n.Low.Kind == base.PosInf {
		return fmt.Errorf("%w: node %d low bound is +inf", base.ErrCorrupt, n.ID)
	}
	if n.High.Kind != base.Finite && n.High.Kind != base.PosInf {
		return fmt.Errorf("%w: node %d high bound is -inf", base.ErrCorrupt, n.ID)
	}
	return nil
}

// Encode writes n into buf, which must be large enough (a full page).
func Encode(n *Node, buf []byte) error {
	if err := encodable(n, len(buf)); err != nil {
		return err
	}
	encode(n, buf)
	return nil
}

// encode writes an encodable n over the whole of buf.
func encode(n *Node, buf []byte) {
	clear(buf)
	copy(buf[0:4], magic[:])
	var flags byte
	if n.Leaf {
		flags |= flagLeaf
	}
	if n.Root {
		flags |= flagRoot
	}
	if n.Deleted {
		flags |= flagDeleted
	}
	if n.Low.Kind == base.Finite {
		flags |= flagLowFinite
		binary.LittleEndian.PutUint64(buf[8:], uint64(n.Low.K))
	}
	if n.High.Kind == base.Finite {
		flags |= flagHighFinite
		binary.LittleEndian.PutUint64(buf[16:], uint64(n.High.K))
	} else {
		flags |= flagHighPosInf
	}
	buf[4] = flags
	binary.LittleEndian.PutUint16(buf[6:], uint16(len(n.Keys)))
	binary.LittleEndian.PutUint32(buf[24:], uint32(n.Link))
	binary.LittleEndian.PutUint32(buf[28:], uint32(n.OutLink))

	off := headerSize
	for _, k := range n.Keys {
		binary.LittleEndian.PutUint64(buf[off:], uint64(k))
		off += 8
	}
	if n.Leaf {
		for _, v := range n.Vals {
			binary.LittleEndian.PutUint64(buf[off:], uint64(v))
			off += 8
		}
	} else {
		for _, c := range n.Children {
			binary.LittleEndian.PutUint32(buf[off:], uint32(c))
			off += 4
		}
	}
}

// Decode parses a node image into a fresh node, one block. id is the
// page it was read from.
func Decode(id base.PageID, buf []byte) (*Node, error) {
	if len(buf) < headerSize || [4]byte(buf[0:4]) != magic {
		return nil, fmt.Errorf("%w: page %d has no node magic", base.ErrCorrupt, id)
	}
	flags := buf[4]
	if flags&flagPrime != 0 {
		return nil, fmt.Errorf("%w: page %d is a prime block", base.ErrCorrupt, id)
	}
	leaf := flags&flagLeaf != 0
	var high base.Bound
	switch {
	case flags&flagHighFinite != 0:
		high = base.FiniteBound(base.Key(binary.LittleEndian.Uint64(buf[16:])))
	case flags&flagHighPosInf != 0:
		high = base.PosInfBound()
	default:
		return nil, fmt.Errorf("%w: page %d high bound is -inf", base.ErrCorrupt, id)
	}
	nkeys := int(binary.LittleEndian.Uint16(buf[6:]))
	need := headerSize + nkeys*8
	if leaf {
		need += nkeys * 8
	} else {
		need += (nkeys + 1) * 4
	}
	if len(buf) < need {
		return nil, fmt.Errorf("%w: page %d truncated (%d < %d)", base.ErrCorrupt, id, len(buf), need)
	}
	n := New(leaf, nkeys)
	n.ID, n.High = id, high
	n.Root = flags&flagRoot != 0
	n.Deleted = flags&flagDeleted != 0
	n.Link = base.PageID(binary.LittleEndian.Uint32(buf[24:]))
	n.OutLink = base.PageID(binary.LittleEndian.Uint32(buf[28:]))
	if flags&flagLowFinite != 0 {
		n.Low = base.FiniteBound(base.Key(binary.LittleEndian.Uint64(buf[8:])))
	}
	off := headerSize
	for i := range n.Keys {
		n.Keys[i] = base.Key(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	if leaf {
		for i := range n.Vals {
			n.Vals[i] = base.Value(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
	} else {
		for i := range n.Children {
			n.Children[i] = base.PageID(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
	}
	return n, nil
}

// EncodePrime writes the prime block into buf.
func EncodePrime(p Prime, buf []byte) error {
	need := 16 + 4*p.Levels
	if len(buf) < need {
		return fmt.Errorf("%w: prime block needs %d bytes, page is %d", base.ErrCorrupt, need, len(buf))
	}
	if p.Levels != len(p.Leftmost) {
		return fmt.Errorf("%w: prime block levels %d != leftmost %d", base.ErrCorrupt, p.Levels, len(p.Leftmost))
	}
	clear(buf)
	copy(buf[0:4], magic[:])
	buf[4] = flagPrime
	binary.LittleEndian.PutUint32(buf[8:], uint32(p.Root))
	binary.LittleEndian.PutUint32(buf[12:], uint32(p.Levels))
	off := 16
	for _, id := range p.Leftmost {
		binary.LittleEndian.PutUint32(buf[off:], uint32(id))
		off += 4
	}
	return nil
}

// DecodePrime parses a prime block image.
func DecodePrime(buf []byte) (Prime, error) {
	if len(buf) < 16 || [4]byte(buf[0:4]) != magic || buf[4]&flagPrime == 0 {
		return Prime{}, fmt.Errorf("%w: not a prime block", base.ErrCorrupt)
	}
	p := Prime{
		Root:   base.PageID(binary.LittleEndian.Uint32(buf[8:])),
		Levels: int(binary.LittleEndian.Uint32(buf[12:])),
	}
	if len(buf) < 16+4*p.Levels {
		return Prime{}, fmt.Errorf("%w: prime block truncated", base.ErrCorrupt)
	}
	p.Leftmost = make([]base.PageID, p.Levels)
	off := 16
	for i := range p.Leftmost {
		p.Leftmost[i] = base.PageID(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	return p, nil
}
