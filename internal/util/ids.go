package util

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
)

// Stretch is N IDs in an arithmetic progression: First, First+Step, …
// A stretch of one ID has Step 0.
type Stretch struct {
	First ID
	Step  int64
	N     int
}

// At returns the stretch's j-th ID.
func (s Stretch) At(j int) ID { return s.First + ID(int64(j)*s.Step) }

// Last returns the stretch's last ID.
func (s Stretch) Last() ID { return s.At(s.N - 1) }

// IDs is a list of IDs held as maximal stretches: walking the list from
// the front, a stretch takes its first two IDs and every further one that
// keeps their step, so only the last stretch may hold one ID. The IDs of a
// typed run are one stretch, and the first stretch is held inline, so such
// a list allocates nothing. The zero value is the empty list.
//
// A copy of a list shares its stretches past the first, and Append
// changes the last one in place: like a slice, append to one copy only.
type IDs struct {
	head Stretch
	more []Stretch
}

// Progression returns the list of the n IDs first, first+step, …
func Progression(first ID, step int64, n int) IDs {
	if n <= 0 {
		return IDs{}
	}
	if n == 1 {
		step = 0
	}
	return IDs{head: Stretch{First: first, Step: step, N: n}}
}

// IDsOf returns the list of ids.
func IDsOf(ids []ID) IDs {
	var l IDs
	for _, id := range ids {
		l.Append(id)
	}
	return l
}

// last returns the list's last stretch, nil when the list is empty.
func (l *IDs) last() *Stretch {
	if n := len(l.more); n > 0 {
		return &l.more[n-1]
	}
	if l.head.N == 0 {
		return nil
	}
	return &l.head
}

// Append appends id, extending the last stretch when id continues it.
func (l *IDs) Append(id ID) {
	switch s := l.last(); {
	case s == nil:
		l.head = Stretch{First: id, N: 1}
	case s.N == 1:
		s.Step, s.N = int64(id-s.First), 2
	case s.Last()+ID(s.Step) == id:
		s.N++
	default:
		l.more = append(l.more, Stretch{First: id, N: 1})
	}
}

// AppendRun appends the n IDs first, first+step, … as Append would one
// by one.
func (l *IDs) AppendRun(first ID, step int64, n int) {
	if n <= 0 {
		return
	}
	l.Append(first)
	if n == 1 {
		return
	}
	s := l.last() // ends in first
	if s.N == 1 {
		s.Step = step
	}
	if s.Step == step {
		s.N += n - 1
		return
	}
	l.more = append(l.more, Progression(first+ID(step), step, n-1).head)
}

// Len returns the number of IDs in the list.
func (l IDs) Len() int {
	n := l.head.N
	for _, s := range l.more {
		n += s.N
	}
	return n
}

// Stretches returns the number of stretches in the list.
func (l IDs) Stretches() int {
	if l.head.N == 0 {
		return 0
	}
	return 1 + len(l.more)
}

// Stretch returns the list's k-th stretch.
func (l IDs) Stretch(k int) Stretch {
	if k == 0 {
		return l.head
	}
	return l.more[k-1]
}

// At returns the list's i-th ID. It walks the stretches before it.
func (l IDs) At(i int) ID {
	for k := 0; k < l.Stretches(); k++ {
		s := l.Stretch(k)
		if i >= 0 && i < s.N {
			return s.At(i)
		}
		i -= s.N
	}
	panic("util: IDs index out of range")
}

// Last returns the list's last ID, NilID when the list is empty.
func (l IDs) Last() ID {
	if s := l.last(); s != nil {
		return s.Last()
	}
	return NilID
}

// AppendTo appends the list's IDs to dst, growing it once.
func (l IDs) AppendTo(dst []ID) []ID {
	dst = slices.Grow(dst, l.Len())
	for k := 0; k < l.Stretches(); k++ {
		s := l.Stretch(k)
		for j := 0; j < s.N; j++ {
			dst = append(dst, s.At(j))
		}
	}
	return dst
}

// The payload of a list is its stretches relative to a base ID, in order:
// each is its count (uvarint), how far its first ID lies below base
// (zigzag varint) and, when it holds more than one ID, its step (zigzag
// varint). An op row stores its character IDs so, based at its own ID;
// the IDs an insert minted right before its op ID take three bytes.

// errPayload reports a payload AppendPayload did not write.
var errPayload = errors.New("util: corrupt ID payload")

// AppendPayload appends the payload of the list based at base to dst.
func (l IDs) AppendPayload(dst []byte, base ID) []byte {
	for k := 0; k < l.Stretches(); k++ {
		s := l.Stretch(k)
		dst = binary.AppendUvarint(dst, uint64(s.N))
		dst = binary.AppendVarint(dst, int64(base-s.First))
		if s.N > 1 {
			dst = binary.AppendVarint(dst, s.Step)
		}
	}
	return dst
}

// walkPayload calls visit with each stretch of payload b based at base,
// in order, having checked that the stretches hold at most MaxInt32 IDs.
func walkPayload(b []byte, base ID, visit func(Stretch)) error {
	total := 0
	for len(b) > 0 {
		c, k := binary.Uvarint(b)
		if k <= 0 || c == 0 || c > math.MaxInt32-uint64(total) {
			return errPayload
		}
		below, k2 := binary.Varint(b[k:])
		if k2 <= 0 {
			return errPayload
		}
		b = b[k+k2:]
		s := Stretch{First: base - ID(below), N: int(c)}
		if c > 1 {
			if s.Step, k = binary.Varint(b); k <= 0 {
				return errPayload
			}
			b = b[k:]
		}
		total += s.N
		visit(s)
	}
	return nil
}

// DecodeIDs returns the list payload b based at base holds.
func DecodeIDs(b []byte, base ID) (IDs, error) {
	var l IDs
	err := walkPayload(b, base, func(s Stretch) { l.AppendRun(s.First, s.Step, s.N) })
	if err != nil {
		return IDs{}, err
	}
	return l, nil
}

// PayloadLen returns how many IDs payload b holds, checking it as
// DecodeIDs does, without building the list.
func PayloadLen(b []byte) (int, error) {
	n := 0
	err := walkPayload(b, NilID, func(s Stretch) { n += s.N })
	return n, err
}
