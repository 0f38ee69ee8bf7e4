package util

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// refPayload is the op-row payload coder as it was written over a plain
// slice: at each index the stretch takes the next two IDs and every
// further one that keeps their step. An IDs list must spell every payload
// byte for byte as it does, so rows written before and after the list
// read alike.
func refPayload(ids []ID, base ID) []byte {
	var dst []byte
	for i := 0; i < len(ids); {
		n, step := 1, int64(0)
		if i+1 < len(ids) {
			step = int64(ids[i+1] - ids[i])
			for n = 2; i+n < len(ids) && int64(ids[i+n]-ids[i+n-1]) == step; n++ {
			}
		}
		dst = binary.AppendUvarint(dst, uint64(n))
		dst = binary.AppendVarint(dst, int64(base-ids[i]))
		if n > 1 {
			dst = binary.AppendVarint(dst, step)
		}
		i += n
	}
	return dst
}

// checkIDs checks l against model: every read, the stretch walk, the
// maximality of the stretches and the payload round trip based at base,
// which must equal refPayload's bytes.
func checkIDs(t *testing.T, l IDs, model []ID, base ID) {
	t.Helper()
	if l.Len() != len(model) {
		t.Fatalf("Len %d, want %d", l.Len(), len(model))
	}
	for i, id := range model {
		if got := l.At(i); got != id {
			t.Fatalf("At(%d) = %v, want %v", i, got, id)
		}
	}
	if got := l.AppendTo(nil); !slices.Equal(got, model) {
		t.Fatalf("AppendTo = %v, want %v", got, model)
	}
	if want := NilID; len(model) > 0 {
		want = model[len(model)-1]
		if l.Last() != want {
			t.Fatalf("Last %v, want %v", l.Last(), want)
		}
	} else if l.Last() != want {
		t.Fatalf("Last of an empty list %v", l.Last())
	}
	var walked []ID
	for k := 0; k < l.Stretches(); k++ {
		s := l.Stretch(k)
		if s.N < 1 || (s.N == 1 && s.Step != 0) {
			t.Fatalf("stretch %d is %+v", k, s)
		}
		if k+1 < l.Stretches() {
			if s.N < 2 {
				t.Fatalf("stretch %d of %d holds one ID", k, l.Stretches())
			}
			if next := l.Stretch(k + 1); s.Last()+ID(s.Step) == next.First {
				t.Fatalf("stretch %d %+v is continued by stretch %d %+v", k, s, k+1, next)
			}
		}
		for j := 0; j < s.N; j++ {
			walked = append(walked, s.At(j))
		}
	}
	if !slices.Equal(walked, model) {
		t.Fatalf("stretches walk %v, want %v", walked, model)
	}
	payload := l.AppendPayload(nil, base)
	if want := refPayload(model, base); !bytes.Equal(payload, want) {
		t.Fatalf("payload %x, want %x", payload, want)
	}
	back, err := DecodeIDs(payload, base)
	if err != nil || !slices.Equal(stretchesOf(back), stretchesOf(l)) {
		t.Fatalf("payload decodes to %v (%v), want %v", stretchesOf(back), err, stretchesOf(l))
	}
	if n, err := PayloadLen(payload); err != nil || n != len(model) {
		t.Fatalf("PayloadLen %d, %v; want %d", n, err, len(model))
	}
	if of := IDsOf(model); !slices.Equal(stretchesOf(of), stretchesOf(l)) {
		t.Fatalf("IDsOf gives %v, appends gave %v", stretchesOf(of), stretchesOf(l))
	}
}

func stretchesOf(l IDs) []Stretch {
	out := make([]Stretch, l.Stretches())
	for k := range out {
		out[k] = l.Stretch(k)
	}
	return out
}

// TestIDsMatchModel appends seeded sequences — typed runs, runs on a
// stride, descending, repeated, shuffled and far-apart IDs, one at a time
// and as runs — and checks the list against a plain slice after every
// append.
func TestIDsMatchModel(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := NewRand(seed)
		var l IDs
		var model []ID
		base := ID(r.Intn(1 << 20))
		prev := ID(r.Intn(1 << 20))
		for step := 0; step < 40; step++ {
			switch r.Intn(4) {
			case 0: // one ID near the last
				prev += ID(r.Intn(7) - 3)
				l.Append(prev)
				model = append(model, prev)
			case 1: // a run, as AppendRun or one ID at a time
				first, d, n := prev+ID(r.Intn(5)-2), int64(r.Intn(7)-3), r.Intn(6)
				if r.Intn(2) == 0 {
					l.AppendRun(first, d, n)
				} else {
					for j := 0; j < n; j++ {
						l.Append(first + ID(int64(j)*d))
					}
				}
				for j := 0; j < n; j++ {
					model = append(model, first+ID(int64(j)*d))
				}
				if n > 0 {
					prev = model[len(model)-1]
				}
			case 2: // far away, below or above base
				prev = ID(r.Intn(math.MaxInt32)) << 8
				l.Append(prev)
				model = append(model, prev)
			case 3: // a typed run as an insert mints it
				n := 1 + r.Intn(8)
				run := Progression(prev+1, 1, n)
				for j := 0; j < n; j++ {
					l.Append(run.At(j))
					model = append(model, run.At(j))
				}
				prev = run.Last()
			}
			checkIDs(t, l, model, base)
		}
	}
}

// TestIDsTypedRunIsInline pins the point of the type: the IDs of a typed
// run are one stretch, appended without an allocation, whose payload
// below its op takes three bytes.
func TestIDsTypedRunIsInline(t *testing.T) {
	var l IDs
	allocs := testing.AllocsPerRun(10, func() {
		l = Progression(1000, 1, 30)
		l.Append(1030)
		l.AppendRun(1031, 1, 9)
	})
	if allocs != 0 || l.Stretches() != 1 || l.Len() != 40 {
		t.Fatalf("%v allocations, %d stretches of %d IDs; want 0, 1 of 40", allocs, l.Stretches(), l.Len())
	}
	if n := len(l.AppendPayload(nil, 1040)); n != 3 {
		t.Fatalf("a typed run below its op takes %d payload bytes, want 3", n)
	}
	if l := Progression(9, 4, 1); l.Stretch(0) != (Stretch{First: 9, N: 1}) {
		t.Fatalf("a progression of one is %+v", l.Stretch(0))
	}
	if l := Progression(9, 1, 0); l.Len() != 0 || l.Stretches() != 0 {
		t.Fatalf("a progression of none holds %d IDs", l.Len())
	}
}

// TestIDsPayloadRefused checks that payloads AppendPayload never writes
// are refused: a truncated stretch, a count of zero, a count past int32.
func TestIDsPayloadRefused(t *testing.T) {
	huge := binary.AppendUvarint(nil, math.MaxInt32+1)
	for _, b := range [][]byte{{2, 4}, {0, 4}, {2}, append(huge, 0, 0)} {
		if _, err := DecodeIDs(b, 100); err == nil {
			t.Errorf("payload %x decoded", b)
		}
		if _, err := PayloadLen(b); err == nil {
			t.Errorf("payload %x counted", b)
		}
	}
}

// FuzzIDs drives appends from fuzz bytes against a plain-slice model, and
// feeds the same bytes to the payload decoder: whatever decodes must
// re-encode and decode to the same stretches, as many IDs as PayloadLen
// counts.
func FuzzIDs(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1}, uint64(50))
	f.Add([]byte{1, 40, 5, 3, 0, 200, 2, 7}, uint64(0))
	f.Add([]byte{3, 2, 4, 1, 1, 9, 0xff, 0x80}, uint64(1<<40))
	f.Fuzz(func(t *testing.T, data []byte, base uint64) {
		var l IDs
		var model []ID
		prev := ID(base)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 3 {
			case 0:
				prev += ID(int8(arg))
				l.Append(prev)
				model = append(model, prev)
			case 1:
				first, step, n := prev+ID(int8(arg)), int64(int8(op)>>2), int(arg%9)
				l.AppendRun(first, step, n)
				for j := 0; j < n; j++ {
					prev = first + ID(int64(j)*step)
					model = append(model, prev)
				}
			case 2:
				prev = ID(uint64(arg)<<56 | uint64(op)<<48 | base&0xffff)
				l.Append(prev)
				model = append(model, prev)
			}
		}
		checkIDs(t, l, model, ID(base))

		got, err := DecodeIDs(data, ID(base))
		n, errLen := PayloadLen(data)
		if (err == nil) != (errLen == nil) {
			t.Fatalf("DecodeIDs %v, PayloadLen %v", err, errLen)
		}
		if err != nil {
			return
		}
		if got.Len() != n {
			t.Fatalf("decoded %d IDs, PayloadLen %d", got.Len(), n)
		}
		again, err := DecodeIDs(got.AppendPayload(nil, ID(base)), ID(base))
		if err != nil || !slices.Equal(stretchesOf(again), stretchesOf(got)) {
			t.Fatalf("re-encoded %v decodes to %v (%v)", stretchesOf(got), stretchesOf(again), err)
		}
	})
}
