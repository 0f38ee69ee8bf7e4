// Package c recreates the PR 7 cache-poisoning class for the visclass
// analyzer: wire-cache keys that omit the visibility class, and VisClass
// stamps outside the redactor.
package c

import "awareness"

func classKey(family, class int) int { return class<<2 | family }

func encode(ev *awareness.Event) []byte { return nil }

// sendGood keys the cache by (family, VisClass): the fixed shape.
func sendGood(ev *awareness.Event, family int) ([]byte, error) {
	return ev.Wire.Get(classKey(family, ev.VisClass), func() ([]byte, error) {
		return encode(ev), nil
	})
}

// sendGoodVar derives the key through a local: still visible one level up.
func sendGoodVar(ev *awareness.Event, family int) ([]byte, error) {
	key := classKey(family, ev.VisClass)
	return ev.Wire.Get(key, func() ([]byte, error) {
		return encode(ev), nil
	})
}

// sendBad is the historical bug: family-only key, so the first
// subscriber's redaction is served to every class.
func sendBad(ev *awareness.Event, family int) ([]byte, error) {
	return ev.Wire.Get(family, func() ([]byte, error) { // want `wire-cache key does not incorporate Event\.VisClass`
		return encode(ev), nil
	})
}

// sendBadVar hides the family-only key behind a local.
func sendBadVar(ev *awareness.Event, family int) ([]byte, error) {
	key := family << 2
	return ev.Wire.Get(key, func() ([]byte, error) { // want `wire-cache key does not incorporate Event\.VisClass`
		return encode(ev), nil
	})
}

type redactor struct {
	class int
}

// redact is the sanctioned stamping point.
//
//tendax:visclass-stamp
func (r *redactor) redact(ev *awareness.Event) {
	ev.VisClass = r.class
}

// restamp bypasses the redaction pipeline.
func restamp(ev *awareness.Event) {
	ev.VisClass = 0 // want `Event\.VisClass stamped outside a //tendax:visclass-stamp function`
}

// construct bypasses it at construction time.
func construct(class int) awareness.Event {
	return awareness.Event{VisClass: class} // want `Event\.VisClass stamped outside a //tendax:visclass-stamp function`
}
