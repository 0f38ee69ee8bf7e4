package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"
)

// checkTree checks the structure of tr: every leaf's keys are sorted and
// its offsets match its arena, no leaf is over capacity or has regrown its
// offsets or values, every key lies inside its parent's separators, all
// leaves sit at one depth, the leaf chain links the leaves in key order,
// and Len counts the entries.
func checkTree[V any](tr *Tree[V]) error {
	var leaves []*node[V]
	depth := -1
	var walk func(n *node[V], lo, hi []byte, d int) error
	walk = func(n *node[V], lo, hi []byte, d int) error {
		// Separators are never empty (each is above some key), so nil
		// means unbounded.
		inside := func(k []byte) bool {
			return (lo == nil || bytes.Compare(k, lo) >= 0) && (hi == nil || bytes.Compare(k, hi) < 0)
		}
		if !n.leaf {
			if len(n.keys) == 0 || len(n.keys) > order || len(n.children) != len(n.keys)+1 {
				return fmt.Errorf("interior node with %d keys and %d children", len(n.keys), len(n.children))
			}
			for i, k := range n.keys {
				if !inside(k) {
					return fmt.Errorf("separator %q outside [%q, %q)", k, lo, hi)
				}
				if i > 0 && bytes.Compare(n.keys[i-1], k) >= 0 {
					return fmt.Errorf("separators %q, %q out of order", n.keys[i-1], k)
				}
			}
			for i, c := range n.children {
				clo, chi := lo, hi
				if i > 0 {
					clo = n.keys[i-1]
				}
				if i < len(n.keys) {
					chi = n.keys[i]
				}
				if err := walk(c, clo, chi, d+1); err != nil {
					return err
				}
			}
			return nil
		}
		if depth < 0 {
			depth = d
		} else if d != depth {
			return fmt.Errorf("leaves at depths %d and %d", depth, d)
		}
		if len(n.ends) > order || cap(n.ends) != order || cap(n.vals) != order || len(n.vals) != len(n.ends) {
			return fmt.Errorf("leaf of %d offsets (capacity %d) and %d values (capacity %d), capacity %d",
				len(n.ends), cap(n.ends), len(n.vals), cap(n.vals), order)
		}
		if int(n.start(len(n.ends))) != len(n.arena) {
			return fmt.Errorf("leaf offsets end at %d, arena holds %d bytes", n.start(len(n.ends)), len(n.arena))
		}
		for i := range n.ends {
			if n.start(i) > n.ends[i] {
				return fmt.Errorf("leaf entry %d spans [%d, %d)", i, n.start(i), n.ends[i])
			}
			k := n.key(i)
			if !inside(k) {
				return fmt.Errorf("key %q outside [%q, %q)", k, lo, hi)
			}
			if i > 0 && bytes.Compare(n.key(i-1), k) >= 0 {
				return fmt.Errorf("leaf keys %q, %q out of order", n.key(i-1), k)
			}
		}
		leaves = append(leaves, n)
		return nil
	}
	if err := walk(tr.root, nil, nil, 0); err != nil {
		return err
	}
	entries := 0
	n := leaves[0]
	for i, l := range leaves {
		if n != l {
			return fmt.Errorf("leaf chain leaves the tree's order at leaf %d", i)
		}
		entries += len(l.ends)
		n = n.next
	}
	if n != nil {
		return fmt.Errorf("leaf chain runs past the last leaf")
	}
	if entries != tr.Len() {
		return fmt.Errorf("Len is %d, leaves hold %d entries", tr.Len(), entries)
	}
	return nil
}

// fuzzPrefixes are the shared prefixes of the fuzzer's keys: none, short
// ones that are prefixes of each other, a doc-index-like one, and long
// ones, so keys run from 0 to a few hundred bytes.
var fuzzPrefixes = [][]byte{
	nil,
	[]byte("a"),
	[]byte("ab"),
	[]byte("doc\x80\x00\x00\x00\x00\x00\x00\x07\x00"),
	bytes.Repeat([]byte("p"), 120),
	bytes.Repeat([]byte("p"), 300),
}

// fuzzKey appends to dst a key of prefix p and a suffix of n in one of four
// shapes: none, one byte, two big-endian bytes, or those two bytes and a
// tail whose length varies with n. Keys of one prefix and shape sort as n.
func fuzzKey(dst []byte, p, shape byte, n uint16) []byte {
	dst = append(dst, fuzzPrefixes[int(p)%len(fuzzPrefixes)]...)
	switch shape % 4 {
	case 1:
		dst = append(dst, byte(n))
	case 2:
		dst = binary.BigEndian.AppendUint16(dst, n)
	case 3:
		dst = binary.BigEndian.AppendUint16(dst, n)
		dst = append(dst, bytes.Repeat([]byte{'t'}, int(n%37))...)
	}
	return dst
}

// treeModel drives a tree and a map with the same operations and fails
// the test at the first disagreement.
type treeModel struct {
	t    *testing.T
	tr   *Tree[int]
	m    map[string]int
	step int

	keys    []string // the model's keys in order, as of the last sorted
	added   []string // keys put since then
	removed bool     // whether a key was deleted since then
}

func (md *treeModel) put(k []byte) {
	md.step++
	_, had := md.m[string(k)]
	if ins := md.tr.Put(k, md.step); ins == had {
		md.t.Fatalf("Put(%q) reported insert %v, model had the key: %v", k, ins, had)
	}
	if !had {
		md.added = append(md.added, string(k))
	}
	md.m[string(k)] = md.step
}

func (md *treeModel) delete(k []byte) {
	_, had := md.m[string(k)]
	if del := md.tr.Delete(k); del != had {
		md.t.Fatalf("Delete(%q) = %v, model had the key: %v", k, del, had)
	}
	if had {
		delete(md.m, string(k))
		md.removed = true
	}
}

func (md *treeModel) get(k []byte) {
	want, had := md.m[string(k)]
	if v, ok := md.tr.Get(k); ok != had || v != want {
		md.t.Fatalf("Get(%q) = %d, %v; model %d, %v", k, v, ok, want, had)
	}
}

// sorted returns the model's keys in order: the keys of the last call
// still in the model, merged with those put since.
func (md *treeModel) sorted() []string {
	if md.removed {
		kept := md.keys[:0]
		for _, k := range md.keys {
			if _, ok := md.m[k]; ok {
				kept = append(kept, k)
			}
		}
		md.keys, md.removed = kept, false
	}
	if len(md.added) > 0 {
		sort.Strings(md.added)
		merged := make([]string, 0, len(md.m))
		i := 0
		for _, k := range md.added {
			if _, ok := md.m[k]; !ok {
				continue // put, then deleted before this call
			}
			for ; i < len(md.keys) && md.keys[i] < k; i++ {
				merged = append(merged, md.keys[i])
			}
			merged = append(merged, k)
		}
		md.keys, md.added = append(merged, md.keys[i:]...), md.added[:0]
	}
	return md.keys
}

// ascend checks AscendRange(from, to) against the model's keys in range.
func (md *treeModel) ascend(keys []string, from, to []byte) {
	i := 0
	if from != nil {
		i = sort.SearchStrings(keys, string(from))
	}
	md.tr.AscendRange(from, to, func(k []byte, v int) bool {
		if cap(k) != len(k) {
			md.t.Fatalf("key %q handed out with capacity %d", k, cap(k))
		}
		if i >= len(keys) || (to != nil && keys[i] >= string(to)) {
			md.t.Fatalf("AscendRange(%q, %q) visits %q past the model's range", from, to, k)
		}
		if string(k) != keys[i] || v != md.m[keys[i]] {
			md.t.Fatalf("AscendRange(%q, %q) visits %q = %d, model %q = %d", from, to, k, v, keys[i], md.m[keys[i]])
		}
		i++
		return true
	})
	if i < len(keys) && (to == nil || keys[i] < string(to)) {
		md.t.Fatalf("AscendRange(%q, %q) stops before the model's %q", from, to, keys[i])
	}
}

// check compares the whole tree, its Min and Max with the model and checks
// its structure.
func (md *treeModel) check() {
	if err := checkTree(md.tr); err != nil {
		md.t.Fatalf("after step %d: %v", md.step, err)
	}
	keys := md.sorted()
	md.ascend(keys, nil, nil)
	lo, hi := md.tr.Min(), md.tr.Max()
	if len(keys) == 0 {
		if lo != nil || hi != nil {
			md.t.Fatalf("empty tree: Min %q, Max %q", lo, hi)
		}
		return
	}
	if string(lo) != keys[0] || string(hi) != keys[len(keys)-1] {
		md.t.Fatalf("Min %q, Max %q; model %q, %q", lo, hi, keys[0], keys[len(keys)-1])
	}
}

// runTreeOps interprets data as a sequence of operations on a tree and its
// model, checking both after every operation. Each operation is an opcode
// byte and four argument bytes.
func runTreeOps(t *testing.T, data []byte) {
	const maxEntries = 10_000 // keeps one input to milliseconds
	md := &treeModel{t: t, tr: New[int](), m: map[string]int{}}
	var key []byte
	for ; len(data) >= 5; data = data[5:] {
		op, p, shape, n := data[0], data[1], data[2], binary.BigEndian.Uint16(data[3:5])
		switch op % 8 {
		case 0:
			md.put(fuzzKey(key[:0], p, shape, n))
		case 1:
			md.delete(fuzzKey(key[:0], p, shape, n))
		case 2:
			md.get(fuzzKey(key[:0], p, shape, n))
		case 3, 4: // an ascending or descending run of 16 to 4096 keys
			count := 16 * (int(shape) + 1)
			for i := 0; i < count && len(md.m) < maxEntries; i++ {
				j := i
				if op%8 == 4 {
					j = count - 1 - i
				}
				key = fuzzKey(key[:0], p, 2, n+uint16(j))
				md.put(key)
			}
		case 5: // delete a run of 4 to 1024 keys in order, emptying leaves
			keys := md.sorted()
			if len(keys) == 0 {
				break
			}
			i := int(n) % len(keys)
			for _, k := range keys[i:min(len(keys), i+4*(int(shape)+1))] {
				md.delete([]byte(k))
			}
		case 6:
			from := fuzzKey(nil, p, shape, n)
			to := fuzzKey(nil, p, shape+1, n+uint16(shape))
			if p%5 == 0 {
				from = nil
			}
			if shape%5 == 0 {
				to = nil
			}
			md.ascend(md.sorted(), from, to)
		case 7:
			md.get(fuzzKey(key[:0], p, shape, n))
			md.get(nil)
		}
		md.check()
	}
}

// FuzzTreeOps drives a tree with Put, Delete, Get, AscendRange, Min and Max
// against a sorted-map model, checking the tree's structure with checkTree
// after every operation.
func FuzzTreeOps(f *testing.F) {
	// Two ascending runs of 4096 keys grow a third level; deleting 1024 at
	// a time empties whole leaves, at the right edge and inside.
	f.Add([]byte{
		3, 3, 255, 0, 0, 3, 3, 255, 16, 0, 5, 0, 255, 0, 0, 5, 0, 255, 255, 255,
		0, 3, 2, 0, 5, 4, 3, 1, 2, 0, 6, 3, 2, 0, 10, 7, 3, 2, 0, 9,
	})
	// Descending runs and single keys of every prefix and shape.
	f.Add([]byte{
		4, 4, 200, 1, 0, 4, 5, 20, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 7,
		0, 2, 3, 0, 40, 0, 5, 1, 0, 1, 1, 0, 0, 0, 0, 6, 0, 3, 0, 0,
		3, 1, 100, 0, 50, 5, 0, 100, 0, 30, 7, 2, 2, 0, 1, 6, 1, 1, 0, 0,
	})
	// Interleaved runs under shared prefixes: ascending keys that land at
	// the right edge of a leaf that is not the last.
	f.Add([]byte{
		3, 1, 64, 0, 0, 3, 2, 64, 0, 0, 3, 1, 64, 16, 0, 3, 0, 64, 0, 0,
		3, 3, 64, 0, 0, 3, 1, 64, 32, 0, 5, 0, 10, 1, 0, 3, 2, 64, 16, 0,
	})
	// Short inputs the fuzzer found against separators that were slices of
	// a leaf's arena, which later inserts and deletes shift under them.
	f.Add([]byte("C1000%0700C00a0"))
	f.Add([]byte("0110\x01C10\x000%07A\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		runTreeOps(t, data[:min(len(data), 5*60)])
	})
}
