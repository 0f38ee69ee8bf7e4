package util

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestIDGenMonotonic(t *testing.T) {
	var g IDGen
	prev := NilID
	for i := 0; i < 1000; i++ {
		id := g.Next()
		if !prev.Less(id) {
			t.Fatalf("id %v not greater than %v", id, prev)
		}
		prev = id
	}
}

func TestIDGenSeed(t *testing.T) {
	var g IDGen
	g.Seed(100)
	if id := g.Next(); id <= 100 {
		t.Fatalf("post-seed id = %v", id)
	}
	g.Seed(50) // lower seed must not rewind
	if id := g.Next(); id <= 101 {
		t.Fatalf("seed rewound generator: %v", id)
	}
}

func TestIDGenConcurrentUnique(t *testing.T) {
	var g IDGen
	const goroutines, per = 8, 1000
	out := make(chan ID, goroutines*per)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				out <- g.Next()
			}
		}()
	}
	wg.Wait()
	close(out)
	seen := make(map[ID]bool, goroutines*per)
	for id := range out {
		if seen[id] {
			t.Fatalf("duplicate id %v", id)
		}
		seen[id] = true
	}
}

// TestIDGenStrideResidue pins the sharded-ID contract: shard i of N mints
// only IDs congruent to i+1 mod N, generators on different residues never
// collide, and each stays strictly increasing.
func TestIDGenStrideResidue(t *testing.T) {
	const shards = 4
	seen := make(map[ID]int)
	for s := 0; s < shards; s++ {
		var g IDGen
		g.SetStride(uint64(s), shards)
		prev := NilID
		for i := 0; i < 500; i++ {
			id := g.Next()
			if !prev.Less(id) {
				t.Fatalf("shard %d: id %v not greater than %v", s, id, prev)
			}
			if got := int((uint64(id) - 1) % shards); got != s {
				t.Fatalf("shard %d minted id %v in residue class %d", s, id, got)
			}
			if owner, dup := seen[id]; dup {
				t.Fatalf("id %v minted by both shard %d and %d", id, owner, s)
			}
			seen[id] = s
			prev = id
		}
	}
}

// TestIDGenStrideSeed checks Seed on a strided generator: the floor may
// belong to any residue class, and the next ID is strictly above it while
// staying on the generator's own class.
func TestIDGenStrideSeed(t *testing.T) {
	for s := uint64(0); s < 4; s++ {
		for floor := ID(0); floor < 40; floor++ {
			var g IDGen
			g.SetStride(s, 4)
			g.Seed(floor)
			id := g.Next()
			if id <= floor {
				t.Fatalf("shard %d seed %v: next id %v not above floor", s, floor, id)
			}
			if got := (uint64(id) - 1) % 4; got != s {
				t.Fatalf("shard %d seed %v: id %v left residue class (%d)", s, floor, id, got)
			}
			if uint64(id) > uint64(floor)+4 {
				t.Fatalf("shard %d seed %v: id %v overshoots (first class member above floor expected)", s, floor, id)
			}
		}
	}
}

// TestIDGenStrideOneIsDense pins backward compatibility: an explicit
// (0, 1) stride behaves exactly like the zero value.
func TestIDGenStrideOneIsDense(t *testing.T) {
	var g IDGen
	g.SetStride(0, 1)
	for want := ID(1); want <= 100; want++ {
		if id := g.Next(); id != want {
			t.Fatalf("dense stride: got %v want %v", id, want)
		}
	}
	g.Seed(500)
	if id := g.Next(); id != 501 {
		t.Fatalf("dense stride post-seed: got %v want 501", id)
	}
}

// TestIDGenNextN pins one reservation per run on a dense and a strided
// generator: NextN(n) returns the first of n IDs Stride apart on the
// generator's residue class, the next ID follows the last of them, and a
// reservation interleaved with Next calls is disjoint from them.
func TestIDGenNextN(t *testing.T) {
	for _, c := range []struct{ offset, stride uint64 }{{0, 1}, {2, 5}} {
		var g IDGen
		g.SetStride(c.offset, c.stride)
		if got := g.Stride(); got != c.stride {
			t.Fatalf("Stride() = %d, want %d", got, c.stride)
		}
		a := g.Next()
		first := g.NextN(4)
		b := g.Next()
		step := ID(c.stride)
		if first != a+step || b != first+4*step {
			t.Fatalf("stride %d: Next %v, NextN(4) %v, Next %v", c.stride, a, first, b)
		}
		if uint64(first-1)%c.stride != c.offset {
			t.Fatalf("stride %d: NextN left residue %d: %v", c.stride, c.offset, first)
		}
	}
}

// TestIDGenNextNConcurrent runs 8 goroutines mixing Next and NextN on one
// strided generator: every ID of every progression is on the residue and
// no ID is handed out twice.
func TestIDGenNextNConcurrent(t *testing.T) {
	var g IDGen
	g.SetStride(1, 3)
	const goroutines, per = 8, 500
	var mu sync.Mutex
	seen := make(map[ID]bool)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []ID
			for i := 0; i < per; i++ {
				if (i+w)%3 == 0 {
					mine = append(mine, g.Next())
					continue
				}
				n := 1 + (i+w)%7
				first := g.NextN(n)
				for k := 0; k < n; k++ {
					mine = append(mine, first+ID(k*3))
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range mine {
				if seen[id] || uint64(id-1)%3 != 1 {
					t.Errorf("id %v handed out twice or off its residue", id)
				}
				seen[id] = true
			}
		}(w)
	}
	wg.Wait()
}

// TestIDGenNextNSeed: Seed lifts Next and NextN alike above the floor.
func TestIDGenNextNSeed(t *testing.T) {
	for _, stride := range []uint64{1, 4} {
		var g IDGen
		g.SetStride(0, stride)
		g.NextN(3)
		g.Seed(1000)
		if first := g.NextN(5); first <= 1000 {
			t.Fatalf("stride %d: NextN after Seed(1000) = %v", stride, first)
		}
		var h IDGen
		h.SetStride(0, stride)
		h.Seed(1000)
		if id := h.Next(); id <= 1000 {
			t.Fatalf("stride %d: Next after Seed(1000) = %v", stride, id)
		}
	}
}

func TestIDBytesRoundTripAndOrder(t *testing.T) {
	f := func(a, b uint64) bool {
		ida, idb := ID(a), ID(b)
		if IDFromBytes(ida.Bytes()) != ida {
			return false
		}
		// Byte order == numeric order.
		ba, bb := ida.Bytes(), idb.Bytes()
		less := false
		for i := range ba {
			if ba[i] != bb[i] {
				less = ba[i] < bb[i]
				break
			}
		}
		if a == b {
			return string(ba) == string(bb)
		}
		return less == (a < b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIDFromShortBytes(t *testing.T) {
	if IDFromBytes([]byte{1, 2}) != NilID {
		t.Fatal("short bytes decoded to non-nil ID")
	}
}

func TestSystemClockMonotone(t *testing.T) {
	c := NewSystemClock()
	prev := c.Now()
	for i := 0; i < 1000; i++ {
		now := c.Now()
		if !now.After(prev) {
			t.Fatal("system clock went backwards or stalled")
		}
		prev = now
	}
}

func TestFakeClock(t *testing.T) {
	start := time.Unix(1000, 0)
	c := NewFakeClock(start, time.Second)
	t1 := c.Now()
	t2 := c.Now()
	if !t2.After(t1) {
		t.Fatal("fake clock not advancing")
	}
	if t2.Sub(t1) != time.Second {
		t.Fatalf("tick = %v", t2.Sub(t1))
	}
	c.Advance(time.Hour)
	if c.Peek().Sub(t2) != time.Hour {
		t.Fatal("Advance did not move the clock")
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds collide on first draw")
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(11)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandLetters(t *testing.T) {
	r := NewRand(13)
	s := r.Letters(1000)
	if len(s) != 1000 {
		t.Fatalf("len = %d", len(s))
	}
	for _, c := range s {
		if c != ' ' && (c < 'a' || c > 'z') {
			t.Fatalf("unexpected rune %q", c)
		}
	}
}

func TestRandSplitIndependent(t *testing.T) {
	r := NewRand(5)
	s := r.Split()
	if r.Uint64() == s.Uint64() {
		t.Fatal("split stream mirrors parent")
	}
}
