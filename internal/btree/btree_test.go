package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"tendax/internal/util"
)

func TestPutGetBasic(t *testing.T) {
	tr := New[int]()
	if _, ok := tr.Get([]byte("missing")); ok {
		t.Fatal("Get on empty tree returned a value")
	}
	if !tr.Put([]byte("a"), 1) {
		t.Fatal("fresh Put reported replace")
	}
	if tr.Put([]byte("a"), 2) {
		t.Fatal("replacing Put reported insert")
	}
	v, ok := tr.Get([]byte("a"))
	if !ok || v != 2 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestDelete(t *testing.T) {
	tr := New[string]()
	tr.Put([]byte("x"), "v")
	if !tr.Delete([]byte("x")) {
		t.Fatal("Delete of present key returned false")
	}
	if tr.Delete([]byte("x")) {
		t.Fatal("Delete of absent key returned true")
	}
	if _, ok := tr.Get([]byte("x")); ok {
		t.Fatal("deleted key still present")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
}

func TestManyKeysSplitAndScan(t *testing.T) {
	tr := New[int]()
	const n = 10000
	for i := 0; i < n; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%06d", i)), i)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	// Every key retrievable.
	for i := 0; i < n; i += 97 {
		v, ok := tr.Get([]byte(fmt.Sprintf("key-%06d", i)))
		if !ok || v != i {
			t.Fatalf("Get key-%06d = %v, %v", i, v, ok)
		}
	}
	// Full scan is ordered and complete.
	prev := []byte(nil)
	count := 0
	tr.AscendRange(nil, nil, func(k []byte, v int) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		count++
		return true
	})
	if count != n {
		t.Fatalf("scan visited %d, want %d", count, n)
	}
}

func TestAscendRange(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 100; i++ {
		tr.Put([]byte(fmt.Sprintf("%03d", i)), i)
	}
	var got []int
	tr.AscendRange([]byte("010"), []byte("020"), func(k []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("range scan = %v", got)
	}
	// Early stop.
	calls := 0
	tr.AscendRange(nil, nil, func(k []byte, v int) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Fatalf("early stop visited %d", calls)
	}
}

// TestHandedOutKeys pins the key lifetimes the package doc states: a key
// AscendRange hands out is capped at its length, so appending to it cannot
// write into the leaf, and Max returns a copy that a later write
// leaves alone.
func TestHandedOutKeys(t *testing.T) {
	tr := New[int]()
	for _, k := range []string{"b", "c", "d"} {
		tr.Put([]byte(k), 0)
	}
	tr.AscendRange(nil, nil, func(k []byte, _ int) bool {
		if cap(k) != len(k) {
			t.Fatalf("key %q handed out with capacity %d", k, cap(k))
		}
		return true
	})
	hi := tr.Max()
	tr.Put([]byte("a"), 0) // shifts every key of the leaf
	tr.Delete([]byte("d"))
	if string(hi) != "d" {
		t.Fatalf("Max reads %q after later writes, want \"d\"", hi)
	}
}

func TestMinMax(t *testing.T) {
	tr := New[string]()
	if tr.Max() != nil {
		t.Fatal("Max of empty tree not nil")
	}
	for _, k := range []string{"m", "a", "z", "q"} {
		tr.Put([]byte(k), k)
	}
	if string(tr.Max()) != "z" {
		t.Fatalf("Max=%q", tr.Max())
	}
}

// TestAgainstReferenceModel drives the tree and a map with the same random
// operations and checks full agreement, including iteration order.
func TestAgainstReferenceModel(t *testing.T) {
	rng := util.NewRand(12345)
	tr := New[int]()
	ref := map[string]int{}
	for step := 0; step < 20000; step++ {
		key := fmt.Sprintf("k%04d", rng.Intn(3000))
		switch rng.Intn(3) {
		case 0, 1:
			tr.Put([]byte(key), step)
			ref[key] = step
		case 2:
			delTree := tr.Delete([]byte(key))
			_, inRef := ref[key]
			if delTree != inRef {
				t.Fatalf("step %d: Delete(%q) = %v, ref has %v", step, key, delTree, inRef)
			}
			delete(ref, key)
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, ref = %d", tr.Len(), len(ref))
	}
	var refKeys []string
	for k := range ref {
		refKeys = append(refKeys, k)
	}
	sort.Strings(refKeys)
	i := 0
	tr.AscendRange(nil, nil, func(k []byte, v int) bool {
		if i >= len(refKeys) {
			t.Fatalf("tree has extra key %q", k)
		}
		if string(k) != refKeys[i] {
			t.Fatalf("position %d: tree %q, ref %q", i, k, refKeys[i])
		}
		if v != ref[refKeys[i]] {
			t.Fatalf("key %q: tree val %v, ref %v", k, v, ref[refKeys[i]])
		}
		i++
		return true
	})
	if i != len(refKeys) {
		t.Fatalf("tree missing %d keys", len(refKeys)-i)
	}
}

func TestQuickPutGetDelete(t *testing.T) {
	f := func(keys [][]byte) bool {
		tr := New[[]byte]()
		ref := map[string][]byte{}
		for _, k := range keys {
			tr.Put(k, append([]byte(nil), k...))
			ref[string(k)] = k
		}
		if tr.Len() != len(ref) {
			return false
		}
		for ks := range ref {
			v, ok := tr.Get([]byte(ks))
			if !ok || !bytes.Equal(v, []byte(ks)) {
				return false
			}
		}
		for ks := range ref {
			if !tr.Delete([]byte(ks)) {
				return false
			}
		}
		return tr.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyKeyAndBinaryKeys(t *testing.T) {
	tr := New[string]()
	tr.Put([]byte{}, "empty")
	tr.Put([]byte{0}, "zero")
	tr.Put([]byte{0xff, 0xff}, "max")
	if v, ok := tr.Get([]byte{}); !ok || v != "empty" {
		t.Fatal("empty key lost")
	}
	if v, ok := tr.Get([]byte{0}); !ok || v != "zero" {
		t.Fatal("zero-byte key lost")
	}
	tr.AscendRange(nil, nil, func(k []byte, _ string) bool {
		if len(k) != 0 {
			t.Fatalf("first key %q, want the empty key", k)
		}
		return false
	})
}

// scanMax is Max by a full scan: the last key Ascend visits.
func scanMax(tr *Tree[int]) []byte {
	var best []byte
	tr.AscendRange(nil, nil, func(k []byte, _ int) bool {
		best = k
		return true
	})
	return best
}

// TestMaxPastEmptiedLeaves deletes the tree's right edge a leaf at a time,
// down to nothing, so Max must step left past leaves (and whole subtrees)
// that deletions emptied; every step it must agree with a scan.
func TestMaxPastEmptiedLeaves(t *testing.T) {
	tr := New[int]()
	const n = 20 * order * order / 4 // three levels
	for i := 0; i < n; i++ {
		tr.Put([]byte(fmt.Sprintf("k%06d", i)), i)
	}
	rng := util.NewRand(7)
	for hi := n; hi > 0; {
		// Empty a run longer than a leaf at the right edge, so at least
		// one whole leaf goes, and now and then a hole further left.
		run := 1 + rng.Intn(2*order)
		for ; run > 0 && hi > 0; run-- {
			hi--
			tr.Delete([]byte(fmt.Sprintf("k%06d", hi)))
		}
		if hi > 0 && rng.Intn(4) == 0 {
			tr.Delete([]byte(fmt.Sprintf("k%06d", rng.Intn(hi))))
		}
		if got, want := tr.Max(), scanMax(tr); !bytes.Equal(got, want) {
			t.Fatalf("with keys below k%06d: Max = %q, scan = %q", hi, got, want)
		}
	}
	if tr.Max() != nil {
		t.Fatalf("Max of an emptied tree = %q", tr.Max())
	}
}

// rid is the shape of the database's record ID, the value its index trees
// hold.
type rid struct {
	page uint64
	slot int
}

// TestPutGetAllocs pins the cost of an index entry: a Put allocates nothing
// of its own (the key is copied into its leaf's arena, the value sits
// inline, and node splits and arena growth amortise below one per Put),
// and a Get allocates nothing.
func TestPutGetAllocs(t *testing.T) {
	tr := New[rid]()
	const n = 4096
	keys := make([][]byte, 2*n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", (i*7919)%(2*n)))
	}
	for _, k := range keys[:n] {
		tr.Put(k, rid{page: 1, slot: 1})
	}
	i := n
	if a := testing.AllocsPerRun(n-1, func() {
		tr.Put(keys[i], rid{page: uint64(i), slot: i})
		i++
	}); a != 0 {
		t.Errorf("Put allocated %.0f times, want 0", a)
	}
	j := 0
	if a := testing.AllocsPerRun(1000, func() {
		if _, ok := tr.Get(keys[j%n]); !ok {
			t.Fatal("stored key missing")
		}
		j++
	}); a != 0 {
		t.Errorf("Get allocated %.0f times, want 0", a)
	}
}

// TestTreeBytesPerEntry gates the settled heap per entry of 200k entries
// in the two key shapes the database stores, each inserted ascending (as
// row IDs arrive) and shuffled: the 8-byte primary key and the 21-byte
// doc index key (doc ID, separator, RID). Each limit is the measured
// value plus 10 %: 31.6, 45.8, 45.8 and 66.5 B. Leaves that grew their
// key slices by append to 128 slots and split in the middle read 105,
// 121, 73 and 89 B.
func TestTreeBytesPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow memory to every allocation")
	}
	const n = 200_000
	for _, c := range []struct {
		name    string
		key     func(dst []byte, i int) []byte
		shuffle bool
		limit   float64
	}{
		{"pk ascending", pkShape, false, 34.8},
		{"doc ascending", docShape, false, 50.4},
		{"pk shuffled", pkShape, true, 50.4},
		{"doc shuffled", docShape, true, 73.2},
	} {
		t.Run(c.name, func(t *testing.T) {
			keys := make([][]byte, n)
			var arena []byte
			for i := range keys {
				start := len(arena)
				arena = c.key(arena, i)
				keys[i] = arena[start:len(arena):len(arena)]
			}
			if c.shuffle {
				rng := util.NewRand(1)
				for i := len(keys) - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					keys[i], keys[j] = keys[j], keys[i]
				}
			}
			before := settledHeap()
			tr := New[rid]()
			for i, k := range keys {
				tr.Put(k, rid{page: uint64(i / 32), slot: i % 32})
			}
			perEntry := (float64(settledHeap()) - float64(before)) / n
			runtime.KeepAlive(tr)
			runtime.KeepAlive(keys)
			t.Logf("%.1f B of settled heap per entry", perEntry)
			if perEntry > c.limit {
				t.Errorf("%.1f B per entry, limit %.1f", perEntry, c.limit)
			}
		})
	}
}

// pkShape appends the i-th primary key: an int64 with its sign flipped,
// big-endian.
func pkShape(dst []byte, i int) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(1000+i)^(1<<63))
}

// docShape appends the i-th doc index key: the doc ID as pkShape encodes
// it, a zero separator, and a RID of eight bytes of page and four of slot.
func docShape(dst []byte, i int) []byte {
	dst = binary.BigEndian.AppendUint64(dst, 7^(1<<63))
	dst = append(dst, 0)
	dst = binary.BigEndian.AppendUint64(dst, uint64(i/32))
	return binary.BigEndian.AppendUint32(dst, uint32(i%32))
}

func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
