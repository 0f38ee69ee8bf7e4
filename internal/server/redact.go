// Per-subscriber redaction of the event stream. Full-document reads have
// always been filtered through the range-ACL masking, but pushed
// events and delta resyncs replayed the committed text to every
// subscriber — the cross-tenant leak this file closes. Each subscriber
// carries a redactor bound to its user; every text-bearing event passes
// through it before encoding, with the runes of masked character
// instances replaced in place (length-preserving, so positional replay
// on the replica stays coherent with the unredacted positions).
//
// Redaction cost is paid only by restricted subscribers: users subject to
// no range deny-read rule are in visibility class 0 and take the shared
// encode-once fast path untouched.
package server

import (
	"sync"

	"tendax/internal/awareness"
	"tendax/internal/core"
	"tendax/internal/security"
	"tendax/internal/util"
)

// MaskRune replaces each character a subscriber may not read in pushed
// and replayed events and in the full texts replicas are built on.
// Length-preserving masking (rather than elision) keeps event positions
// valid on the receiving replica.
const MaskRune = '█'

// classOf interns a visibility fingerprint as a small dense class ID, the
// key of the event's wire cache. Fingerprint 0 — no masking — is always
// class 0, so all-visible subscribers share one cached frame; each
// restricted class shares its own.
func (s *Server) classOf(fingerprint uint64) int {
	if fingerprint == 0 {
		return 0
	}
	s.visMu.Lock()
	defer s.visMu.Unlock()
	if id, ok := s.visClasses[fingerprint]; ok {
		return id
	}
	id := len(s.visClasses) + 1
	s.visClasses[fingerprint] = id
	return id
}

// redactor filters one subscriber's view of one document's event stream.
// It caches the set of character instances hidden from its user, rebuilt
// lazily: on the first event, on every ACL change (EvSecurity), and when
// an event mentions instances born after the last rebuild. Instances
// that remain unknown after a rebuild are masked — fail closed: text the
// redactor cannot classify is never forwarded.
type redactor struct {
	srv  *Server
	user string
	doc  util.ID

	mu     sync.Mutex
	built  bool
	class  int              // dense visibility class, 0 = all visible
	hidden map[util.ID]bool // instances the user may not read
	known  map[util.ID]bool // instances visible at the last rebuild
}

// newRedactor returns nil when the server runs without a security store —
// every subscriber is then all-visible and pays nothing.
func (s *Server) newRedactor(user string, doc util.ID) *redactor {
	if s.sec == nil {
		return nil
	}
	return &redactor{srv: s, user: user, doc: doc}
}

// rebuildLocked re-evaluates the user's visibility fingerprint and, when
// masking applies, the hidden-instance set from the document's current
// snapshot. O(doc * rules), paid only by restricted subscribers and only
// at rebuild points.
func (r *redactor) rebuildLocked() {
	r.built = true
	fp := r.srv.sec.ReadVisibility(r.user, r.doc)
	r.class = r.srv.classOf(fp)
	r.hidden, r.known = nil, nil
	if r.class == 0 {
		return
	}
	if fp == security.DeniedVisibility {
		// Whole-document deny-read (or an unreadable ACL table): leaving
		// hidden==known==nil keeps every instance unknown, so every event
		// masks fully — a subscriber whose doc-level access was revoked
		// mid-subscription stops seeing plaintext from the next rebuild
		// point (the EvSecurity event of the revocation) on.
		return
	}
	d, err := r.srv.cl.OpenDocument(r.doc)
	if err != nil {
		return // hidden==known==nil: every instance is unknown, masked
	}
	snap := d.Snapshot()
	ids := snap.Tree().VisibleIDs()
	mask := r.srv.sec.ReadableMask(r.user, r.doc, ids)
	r.known = make(map[util.ID]bool, len(ids))
	r.hidden = make(map[util.ID]bool)
	for i, id := range ids {
		r.known[id] = true
		if mask != nil && !mask[i] {
			r.hidden[id] = true
		}
	}
}

// redact returns the event as this subscriber may see it, with the
// visibility class it was redacted for stamped into Event.VisClass.
// Stamp and masking happen under one lock acquisition: the redactor is
// shared between the subscription pump and the connection's request
// goroutine (resync replay), and a class read in a separate call could
// disagree with the hidden set the text was actually masked with — the
// wire cache would then serve those bytes to the wrong class. Events
// without readable payload pass through; an ACL change (and an event
// naming instances born after the last rebuild) triggers a rebuild so
// the class and hidden set track the new rules.
//
//tendax:visclass-stamp
func (r *redactor) redact(ev awareness.Event) awareness.Event {
	if r == nil {
		return ev
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rebuild := ev.Kind == awareness.EvSecurity || !r.built
	if !rebuild && r.class != 0 && r.unknownInLocked(&ev) {
		rebuild = true
	}
	if rebuild {
		r.rebuildLocked()
	}
	ev.VisClass = r.class
	if r.class == 0 {
		return ev
	}
	if ev.Text != "" {
		// Text without character instances (a note's annotation body, or
		// any future text-bearing kind that forgets to attach IDs) cannot
		// be classified — fail closed and mask all of it for restricted
		// subscribers rather than guess.
		if ev.IDs.Len() > 0 {
			ev.Text = r.maskLocked(ev.Text, ev.IDs)
		} else {
			ev.Text = maskAll(ev.Text)
		}
	}
	if len(ev.Batch) > 0 {
		items := make([]awareness.BatchItem, len(ev.Batch))
		copy(items, ev.Batch)
		for i := range items {
			if items[i].Text == "" {
				continue
			}
			if items[i].IDs.Len() > 0 {
				items[i].Text = r.maskLocked(items[i].Text, items[i].IDs)
			} else {
				items[i].Text = maskAll(items[i].Text)
			}
		}
		ev.Batch = items
	}
	return ev
}

// maskAll replaces every rune — the fail-closed path for text that
// carries no instance IDs to classify.
func maskAll(text string) string {
	runes := []rune(text)
	for i := range runes {
		runes[i] = MaskRune
	}
	return string(runes)
}

// unknownInLocked reports whether the event names a character instance
// born after the last rebuild — the trigger for rebuilding BEFORE the
// class is stamped, so one redact call never mixes two hidden sets.
func (r *redactor) unknownInLocked(ev *awareness.Event) bool {
	if r.unknownLocked(ev.IDs) {
		return true
	}
	for i := range ev.Batch {
		if r.unknownLocked(ev.Batch[i].IDs) {
			return true
		}
	}
	return false
}

// unknownLocked reports whether ids names an instance born after the last
// rebuild.
func (r *redactor) unknownLocked(ids util.IDs) bool {
	for k := 0; k < ids.Stretches(); k++ {
		s := ids.Stretch(k)
		for j := 0; j < s.N; j++ {
			if !r.known[s.At(j)] {
				return true
			}
		}
	}
	return false
}

// maskLocked replaces the runes of hidden (or unknown — fail closed)
// instances. ids parallel the runes of text; runes beyond the identified
// prefix are masked too — partially-identified text must not fail open
// any more than text with no IDs at all does.
func (r *redactor) maskLocked(text string, ids util.IDs) string {
	runes := []rune(text)
	changed := false
	i := 0 // the rune the next ID names
	for k := 0; k < ids.Stretches() && i < len(runes); k++ {
		s := ids.Stretch(k)
		for j := 0; j < s.N && i < len(runes); j, i = j+1, i+1 {
			if id := s.At(j); r.hidden[id] || !r.known[id] {
				runes[i] = MaskRune
				changed = true
			}
		}
	}
	for ; i < len(runes); i++ {
		runes[i] = MaskRune
		changed = true
	}
	if !changed {
		return text
	}
	return string(runes)
}

// subscribeFilter adapts the redactor to the awareness bus's filter hook:
// it runs on the pump goroutine, off the publish path.
func (r *redactor) subscribeFilter() awareness.FilterFunc {
	if r == nil {
		return nil
	}
	return func(ev awareness.Event) (awareness.Event, bool) {
		return r.redact(ev), true
	}
}

// checkRead gates subscriptions: a user denied RRead on the whole
// document gets no event stream at all.
func (s *Server) checkRead(user string, doc util.ID) error {
	if s.sec == nil {
		return nil
	}
	return s.sec.Check(user, doc, core.RRead)
}
