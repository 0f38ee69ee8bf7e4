// Package util provides small shared utilities for the TeNDaX system:
// identifier generation, a logical clock abstraction, binary codecs and a
// deterministic pseudo-random source. Everything here is dependency-free so
// that every other package may import it.
package util

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// ID is a 64-bit identifier unique within one engine instance. IDs are
// ordered by allocation time, which several subsystems (versioning, lineage)
// rely on: if a.Less(b) then a was allocated before b.
type ID uint64

// NilID is the zero ID; it never identifies a real object.
const NilID ID = 0

// Less reports whether id was allocated before other.
func (id ID) Less(other ID) bool { return id < other }

// IsNil reports whether id is the zero identifier.
func (id ID) IsNil() bool { return id == NilID }

// String renders the ID in a short fixed-width hexadecimal form.
func (id ID) String() string { return fmt.Sprintf("%012x", uint64(id)) }

// Bytes returns the big-endian encoding of the ID. Big-endian keeps the
// lexicographic order of encoded keys equal to numeric ID order, which the
// B-tree indexes depend on.
func (id ID) Bytes() []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return b[:]
}

// IDFromBytes decodes an ID previously encoded with Bytes.
func IDFromBytes(b []byte) ID {
	if len(b) < 8 {
		return NilID
	}
	return ID(binary.BigEndian.Uint64(b))
}

// IDGen allocates process-unique, monotonically increasing IDs. The zero
// value is ready to use and never returns NilID.
//
// A generator may optionally be partitioned with SetStride so that several
// independent generators mint from disjoint residue classes: shard i of N
// (offset=i, stride=N) issues i+1, i+1+N, i+1+2N, … and an ID's owning
// shard is recoverable as (id-1) mod N. The zero value is the dense
// single-shard case (offset 0, stride 1) and behaves exactly as before.
type IDGen struct {
	// count of IDs issued so far; the k-th issue is offset+1+(k-1)*stride.
	// In the dense case that equals k, so count doubles as "last ID".
	count  atomic.Uint64
	offset uint64
	stride uint64 // 0 means 1 (zero value stays ready to use)
}

// SetStride partitions the generator onto a residue class: subsequent IDs
// are offset+1, offset+1+stride, offset+1+2*stride, … Call it once, before
// any ID is issued or seeded; offset must be < stride.
func (g *IDGen) SetStride(offset, stride uint64) {
	if stride == 0 || offset >= stride {
		panic("util: IDGen.SetStride requires offset < stride")
	}
	if g.count.Load() != 0 {
		panic("util: IDGen.SetStride after IDs were issued")
	}
	g.offset, g.stride = offset, stride
}

func (g *IDGen) strideOr1() uint64 {
	if g.stride == 0 {
		return 1
	}
	return g.stride
}

// Next returns a fresh ID strictly greater than all previously returned IDs
// (within this generator's residue class).
func (g *IDGen) Next() ID {
	k := g.count.Add(1)
	return ID(g.offset + 1 + (k-1)*g.strideOr1())
}

// NextN reserves n IDs with one atomic add and returns the first; the
// others follow it Stride apart, in the generator's residue class, and no
// other Next or NextN call returns any of them. n must be at least 1.
func (g *IDGen) NextN(n int) ID {
	k := g.count.Add(uint64(n)) - uint64(n) + 1
	return ID(g.offset + 1 + (k-1)*g.strideOr1())
}

// Stride returns the distance between two successive IDs of the
// generator: 1 unless SetStride partitioned it.
func (g *IDGen) Stride() uint64 { return g.strideOr1() }

// Seed advances the generator so that subsequent IDs are strictly greater
// than floor. It is used when reloading persisted state so new allocations
// do not collide with stored IDs. The generator stays on its residue class:
// floor may belong to any class (e.g. another shard's document referenced
// from this shard's tables).
func (g *IDGen) Seed(floor ID) {
	stride := g.strideOr1()
	var want uint64 // issued-count that puts the next ID above floor
	if uint64(floor) > g.offset {
		d := uint64(floor) - g.offset
		want = (d + stride - 1) / stride
	}
	for {
		cur := g.count.Load()
		if cur >= want {
			return
		}
		if g.count.CompareAndSwap(cur, want) {
			return
		}
	}
}
