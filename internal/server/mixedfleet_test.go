// Mixed-fleet compatibility: one server simultaneously serving a v1
// raw-wire client (never says hello, JSON frames) and two v3 library
// clients (negotiated, binary frames) on the same document. Every replica
// must converge byte-for-byte — the framing is a per-connection choice,
// never a semantic fork.
package server

import (
	"strings"
	"testing"
	"time"

	"tendax/internal/core"
	"tendax/internal/protocol"
	"tendax/internal/security"
	"tendax/internal/util"
)

func TestMixedFleetConvergence(t *testing.T) {
	addr, eng := harness(t, false)

	// v1: raw wire, position-addressed ops, no hello.
	w := dialV1(t, addr)
	w.call(&protocol.Message{Op: protocol.OpLogin, User: "legacy"})
	docID := w.call(&protocol.Message{Op: protocol.OpCreateDoc, Name: "fleet"}).Doc
	w.call(&protocol.Message{Op: protocol.OpSubscribe, Doc: docID})

	// v3: full negotiation, binary frames both ways from here on.
	c2 := loginVer(t, addr, "modern", "", protocol.VersionMax)
	c3 := loginVer(t, addr, "binary", "", protocol.VersionMax)
	if c2.Ver() != protocol.Version3 || c3.Ver() != protocol.Version3 {
		t.Fatalf("v3 hellos: v%d, v%d", c2.Ver(), c3.Ver())
	}
	d2, err := c2.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := c3.Open(docID)
	if err != nil {
		t.Fatal(err)
	}

	// Interleave edits from both generations.
	w.call(&protocol.Message{Op: protocol.OpInsert, Doc: docID, Pos: 0, Text: "[v1] "})
	s2, err := d2.Session()
	if err != nil {
		t.Fatal(err)
	}
	s3, err := d3.Session()
	if err != nil {
		t.Fatal(err)
	}
	if c2.Ver() != protocol.Version3 || c3.Ver() != protocol.Version3 {
		t.Fatalf("session renegotiated: v%d, v%d", c2.Ver(), c3.Ver())
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
	w.call(&protocol.Message{Op: protocol.OpInsert, Doc: docID, Pos: 0, Text: "[v1 again] "})

	// The engine's committed text is the truth every replica must reach.
	doc, err := eng.OpenDocument(util.ID(docID))
	if err != nil {
		t.Fatal(err)
	}
	want := doc.Text()
	if len(want) != len("[v1] ")+len("[v1 again] ")+80 {
		t.Fatalf("server text %q lost edits", want)
	}

	// Both v3 replicas converge from live binary pushes — poll briefly,
	// then compare byte-for-byte.
	deadline := time.Now().Add(5 * time.Second)
	for d2.Text() != want || d3.Text() != want {
		if time.Now().After(deadline) {
			t.Fatalf("replicas diverged:\n server %q\n modern %q\n binary %q",
				want, d2.Text(), d3.Text())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The v1 replica recovers via its documented full fetch.
	if got := w.call(&protocol.Message{Op: protocol.OpText, Doc: docID}).Text; got != want {
		t.Fatalf("v1 replica diverged:\n server %q\n v1     %q", want, got)
	}

	// And a v1 edit after all that still round-trips: the server never
	// sends binary frames to a connection that did not negotiate v3.
	w.call(&protocol.Message{Op: protocol.OpDelete, Doc: docID, Pos: 0, N: 5})
	if got := w.call(&protocol.Message{Op: protocol.OpText, Doc: docID}).Text; got != want[5:] {
		t.Fatalf("post-fleet v1 edit: %q", got)
	}
}

// TestCrossTenantRedactionAcrossProtocols pins the multi-tenant isolation
// contract on every event channel and protocol generation: a user under a
// range deny-read rule must never observe the denied characters — not in
// live pushes (v1 JSON, v3 binary), not in EvBatch items, not in
// a "resync sinceSeq" replay — while unrestricted subscribers keep seeing
// the unredacted stream (i.e. the per-class wire cache never serves a
// masked frame to an all-visible connection, or vice versa).
func TestCrossTenantRedactionAcrossProtocols(t *testing.T) {
	addr, eng, store := harnessStore(t, true)

	alice := loginVer(t, addr, "alice", "pw-a", protocol.VersionMax)
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

	// Raw-wire subscribers: bob at v1 and on two v3 connections, plus an
	// unrestricted alice observer.
	bob1 := subscribeWire(t, addr, docID, "bob", "pw-b", protocol.Version1)
	bob2 := subscribeWire(t, addr, docID, "bob", "pw-b", protocol.Version3)
	bob3 := subscribeWire(t, addr, docID, "bob", "pw-b", protocol.Version3)
	aobs := subscribeWire(t, addr, docID, "alice", "pw-a", protocol.Version3)

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
	if err := ad.Note(2, "note quoting SECRET"); err != nil {
		t.Fatal(err)
	}

	// Drain every subscriber until it has seen the last committed event.
	wantSeq := eng.Bus().Seq(util.ID(docID))
	for _, w := range []*v1Wire{bob1, bob2, bob3, aobs} {
		w.drainTo(docID, wantSeq)
	}

	for name, w := range map[string]*v1Wire{"v1": bob1, "v3a": bob2, "v3b": bob3} {
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
	// The public batch item arrives unredacted for batch-capable bobs…
	for name, w := range map[string]*v1Wire{"v3a": bob2, "v3b": bob3} {
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

	// Delta-resync replay: the full history since seq 0 must come back
	// redacted for bob (including the pre-subscription "SECRET" insert)
	// and unredacted for alice, on the same ring.
	for name, w := range map[string]*v1Wire{"v3a": bob2, "v3b": bob3} {
		resp := w.call(&protocol.Message{Op: protocol.OpResync, Doc: docID, Since: 0})
		if resp.Full || len(resp.Events) == 0 {
			t.Fatalf("bob/%s resync fell back to full text (events=%d)", name, len(resp.Events))
		}
		got := eventTexts(eventPtrs(resp.Events))
		for _, secret := range []string{"SECRET", "XX", "ZZ"} {
			if strings.Contains(got, secret) {
				t.Fatalf("bob/%s resync replay leaked %q:\n%s", name, secret, got)
			}
		}
		if !strings.Contains(got, "public ") {
			t.Fatalf("bob/%s resync replay over-masked public text:\n%s", name, got)
		}
	}
	aresp := aobs.call(&protocol.Message{Op: protocol.OpResync, Doc: docID, Since: 0})
	if aresp.Full {
		t.Fatal("alice resync fell back to full text")
	}
	var asb strings.Builder
	for i := range aresp.Events {
		asb.WriteString(aresp.Events[i].Text)
	}
	if !strings.Contains(asb.String(), "SECRET") {
		t.Fatalf("alice resync replay redacted for the wrong user:\n%s", asb.String())
	}
}

// wireAt opens a raw-wire connection logged in as user at protocol
// version ver (v1, or v3 after a hello), so every received frame is
// inspectable.
func wireAt(t *testing.T, addr, user, pw string, ver int) *v1Wire {
	t.Helper()
	w := dialV1(t, addr)
	w.call(&protocol.Message{Op: protocol.OpLogin, User: user, Password: pw})
	if ver >= protocol.Version3 {
		if got := w.call(&protocol.Message{Op: protocol.OpHello, Ver: ver}).Ver; got != protocol.Version3 {
			t.Fatalf("hello: negotiated v%d, want v3", got)
		}
		w.codec.EnableBinary()
	}
	return w
}

// subscribeWire is wireAt subscribed to doc.
func subscribeWire(t *testing.T, addr string, doc uint64, user, pw string, ver int) *v1Wire {
	t.Helper()
	w := wireAt(t, addr, user, pw, ver)
	w.call(&protocol.Message{Op: protocol.OpSubscribe, Doc: doc})
	return w
}

// drainTo collects pushes until the subscriber has seen event seq of doc.
func (w *v1Wire) drainTo(doc, seq uint64) {
	w.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.call(&protocol.Message{Op: protocol.OpPresence, Doc: doc})
		var max uint64
		for _, ev := range w.pushes {
			if ev.Seq > max {
				max = ev.Seq
			}
		}
		if max >= seq {
			return
		}
		if time.Now().After(deadline) {
			w.t.Fatalf("subscriber stuck at seq %d, want %d", max, seq)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// eventTexts flattens everything text-like in evs.
func eventTexts(evs []*protocol.Event) string {
	var sb strings.Builder
	for _, ev := range evs {
		sb.WriteString(ev.Text)
		sb.WriteByte('\n')
		for _, it := range ev.Batch {
			sb.WriteString(it.Text)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// eventPtrs points at each event of a resync response.
func eventPtrs(evs []protocol.Event) []*protocol.Event {
	out := make([]*protocol.Event, len(evs))
	for i := range evs {
		out[i] = &evs[i]
	}
	return out
}
