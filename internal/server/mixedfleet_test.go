// Mixed-fleet convergence: one server simultaneously serving a client
// that edits by position, one edit per request, and two clients typing
// through pipelined sessions, on the same document. Every replica must
// converge byte-for-byte — a one-op edit and a coalesced batch are two
// presentations of the same transaction, never a semantic fork.
package server

import (
	"strings"
	"testing"
	"time"

	"tendax/internal/client"
	"tendax/internal/core"
	"tendax/internal/protocol"
	"tendax/internal/security"
	"tendax/internal/util"
)

func TestMixedFleetConvergence(t *testing.T) {
	addr, eng := harness(t, false)

	c1 := login(t, addr, "positional", "")
	docID, err := c1.CreateDocument("fleet")
	if err != nil {
		t.Fatal(err)
	}
	c2 := login(t, addr, "modern", "")
	c3 := login(t, addr, "binary", "")
	var docs [3]*client.Doc
	for i, c := range []*client.Client{c1, c2, c3} {
		if docs[i], err = c.Open(docID); err != nil {
			t.Fatal(err)
		}
	}
	d1, d2, d3 := docs[0], docs[1], docs[2]

	// Interleave positional edits and session batches.
	if err := d1.Insert(0, "[pos] "); err != nil {
		t.Fatal(err)
	}
	s2, err := d2.Session()
	if err != nil {
		t.Fatal(err)
	}
	s3, err := d3.Session()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := s2.Type("b"); err != nil {
			t.Fatal(err)
		}
		if err := s3.Type("c"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s3.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := d1.Insert(0, "[pos again] "); err != nil {
		t.Fatal(err)
	}
	if err := d1.Delete(0, 5); err != nil {
		t.Fatal(err)
	}

	// The engine's committed text is the truth every replica must reach.
	doc, err := eng.OpenDocument(util.ID(docID))
	if err != nil {
		t.Fatal(err)
	}
	want := doc.Text()
	if len(want) != len("[pos] ")+len("[pos again] ")+80-5 {
		t.Fatalf("server text %q lost edits", want)
	}

	// Every replica converges from live pushes — poll briefly, then
	// compare byte-for-byte.
	deadline := time.Now().Add(5 * time.Second)
	for d1.Text() != want || d2.Text() != want || d3.Text() != want {
		if time.Now().After(deadline) {
			t.Fatalf("replicas diverged:\n server     %q\n positional %q\n modern     %q\n binary     %q",
				want, d1.Text(), d2.Text(), d3.Text())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrossTenantRedactionAcrossProtocols pins the multi-tenant isolation
// contract on every event channel: a user under a range deny-read rule
// must never observe the denied characters — not in live pushes, not in
// EvBatch items, not in a subscription's base — while unrestricted
// subscribers keep seeing the unredacted stream. The wire cache is keyed
// by visibility class alone, so bob's three connections (one restricted
// class) and alice's (the all-visible class) share one event's cache: it
// must never serve a masked frame to an all-visible connection, or vice
// versa.
func TestCrossTenantRedactionAcrossProtocols(t *testing.T) {
	addr, eng, store := harnessStore(t, true)

	alice := login(t, addr, "alice", "pw-a")
	docID, err := alice.CreateDocument("tenants")
	if err != nil {
		t.Fatal(err)
	}
	ad, err := alice.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	if err := ad.Insert(0, "public SECRET public"); err != nil {
		t.Fatal(err)
	}

	// Hide "SECRET" (chars 7..12) from bob by character-identity range.
	d, err := eng.OpenDocument(util.ID(docID))
	if err != nil {
		t.Fatal(err)
	}
	metas, err := d.RangeMeta(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.DenyRange("alice", d.ID(), security.UserPrefix+"bob",
		core.RRead, metas[0].ID, metas[len(metas)-1].ID); err != nil {
		t.Fatal(err)
	}

	// Raw-wire subscribers: bob on three connections, plus an unrestricted
	// alice observer.
	bob1 := subscribeWire(t, addr, docID, "bob", "pw-b")
	bob2 := subscribeWire(t, addr, docID, "bob", "pw-b")
	bob3 := subscribeWire(t, addr, docID, "bob", "pw-b")
	aobs := subscribeWire(t, addr, docID, "alice", "pw-a")

	// Anchors resolved before the edits move positions around.
	inSecret, err := ad.Anchors(9, 1) // a char inside the denied range
	if err != nil {
		t.Fatal(err)
	}
	atEnd, err := ad.Anchors(19, 1) // the public last char
	if err != nil {
		t.Fatal(err)
	}

	// Three leak channels: a single insert into the denied range, a batch
	// with one item inside and one outside it, and a note whose body
	// quotes the secret (no character identities — fail-closed masking).
	if err := ad.Insert(10, "XX"); err != nil {
		t.Fatal(err)
	}
	if _, err := ad.EditBatch([]protocol.EditOp{
		{Kind: "insert", After: &inSecret[0], Text: "ZZ"},
		{Kind: "insert", After: &atEnd[0], Text: " tail"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := note(ad, 2, "note quoting SECRET"); err != nil {
		t.Fatal(err)
	}

	// Drain every subscriber until it has seen the last committed event.
	wantSeq := eng.Bus().Seq(util.ID(docID))
	for _, w := range []*wireConn{bob1, bob2, bob3, aobs} {
		w.drainTo(docID, wantSeq)
	}

	bobs := map[string]*wireConn{"a": bob1, "b": bob2, "c": bob3}
	for name, w := range bobs {
		got := eventTexts(w.pushes)
		for _, secret := range []string{"SECRET", "XX", "ZZ"} {
			if strings.Contains(got, secret) {
				t.Fatalf("bob/%s pushes leaked %q:\n%s", name, secret, got)
			}
		}
		if !strings.ContainsRune(got, '█') {
			t.Fatalf("bob/%s saw no masked pushes at all:\n%s", name, got)
		}
	}
	// The public batch item arrives unredacted for bob…
	for name, w := range bobs {
		if got := eventTexts(w.pushes); !strings.Contains(got, " tail") {
			t.Fatalf("bob/%s over-masked the public batch item:\n%s", name, got)
		}
	}
	// …and the unrestricted observer sees everything unredacted.
	aliceGot := eventTexts(aobs.pushes)
	for _, want := range []string{"XX", "ZZ", " tail", "note quoting SECRET"} {
		if !strings.Contains(aliceGot, want) {
			t.Fatalf("alice observer missing %q:\n%s", want, aliceGot)
		}
	}
	if strings.ContainsRune(aliceGot, '█') {
		t.Fatalf("all-visible subscriber received a masked frame:\n%s", aliceGot)
	}

	// Bases: each subscription opened on the text as its user may read it,
	// the pre-subscription "SECRET" masked for bob, length-preserving, and
	// plain for alice.
	base := func(w *wireConn) string {
		for _, ev := range w.pushes {
			if ev.Kind == protocol.EvResync {
				return ev.Text
			}
		}
		t.Fatal("a subscriber got no base")
		return ""
	}
	for name, w := range bobs {
		if got := base(w); got != "public ██████ public" {
			t.Fatalf("bob/%s base %q, want the masked text", name, got)
		}
	}
	if got := base(aobs); got != "public SECRET public" {
		t.Fatalf("alice base %q, want the plain text", got)
	}
}
