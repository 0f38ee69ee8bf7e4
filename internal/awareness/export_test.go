package awareness

import "tendax/internal/util"

// EventsSince returns every event of doc with sequence number > since, in
// order, provided the retention ring still covers the whole gap; ok is
// false when the gap exceeds retention. The tests read a ring's contents
// through it. since >= the current sequence returns an empty covered
// slice. The returned events are copies; the Batch slices are shared with
// the published events, which are never mutated after publication.
func (b *Bus) EventsSince(doc util.ID, since uint64) ([]Event, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.docs[doc]
	if d == nil || since >= d.seq {
		return nil, true
	}
	if _, ok := d.ring.at(since + 1); !ok {
		return nil, false // gap predates the ring
	}
	out := make([]Event, 0, d.seq-since)
	for seq := since + 1; seq <= d.seq; seq++ {
		e, _ := d.ring.at(seq)
		out = append(out, e)
	}
	return out, true
}
