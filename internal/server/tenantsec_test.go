// Regression tests for the multi-tenant hardening review findings: a
// doc-level read revocation must cut off the live event stream and a
// lagging subscriber's base (not just range-rule masking), partially-identified text
// must fail closed, and a rejected request must not drain the other
// rate-limit budget.
package server

import (
	"errors"
	"strings"
	"testing"
	"time"

	"tendax/internal/client"
	"tendax/internal/core"
	"tendax/internal/protocol"
	"tendax/internal/security"
	"tendax/internal/util"
)

// TestDocLevelRevocationCutsEventStream pins the high-severity leak: a
// subscriber whose WHOLE-DOCUMENT read access is revoked mid-subscription
// (no range rule involved — exactly the case range-rule fingerprinting
// alone misses) must stop receiving plaintext on every channel: live
// pushes mask fully from the revocation's EvSecurity event on, and the
// retired full-text and replay reads are unknown ops. Unrestricted
// subscribers keep the unredacted fast path throughout.
func TestDocLevelRevocationCutsEventStream(t *testing.T) {
	addr, eng, store := harnessStore(t, true)
	if err := store.CreateUser("carol", "pw-c"); err != nil {
		t.Fatal(err)
	}

	alice := login(t, addr, "alice", "pw-a")
	docID, err := alice.CreateDocument("tenants")
	if err != nil {
		t.Fatal(err)
	}
	ad, err := alice.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	if err := ad.Insert(0, "public before "); err != nil {
		t.Fatal(err)
	}

	// Explicit allow rules: once any doc-level RRead rule exists the
	// document is closed by default, and bob's access hinges on his grant.
	doc := util.ID(docID)
	if _, err := store.Grant("alice", doc, security.UserPrefix+"bob", core.RRead); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Grant("alice", doc, security.UserPrefix+"carol", core.RRead); err != nil {
		t.Fatal(err)
	}

	bob := subscribeWire(t, addr, docID, "bob", "pw-b")
	aobs := subscribeWire(t, addr, docID, "alice", "pw-a")

	// Revoke bob's grant. Carol's rule keeps the document closed-by-rule,
	// so bob is now denied doc-level read — and the revocation publishes
	// the EvSecurity event that makes live redactors rebuild.
	acls, err := store.ACLs(doc)
	if err != nil {
		t.Fatal(err)
	}
	var bobRule util.ID
	for _, a := range acls {
		if a.Principal == security.UserPrefix+"bob" {
			bobRule = a.ID
		}
	}
	if bobRule.IsNil() {
		t.Fatal("bob's grant not found")
	}
	if err := store.Revoke("alice", bobRule); err != nil {
		t.Fatal(err)
	}
	if err := ad.Insert(0, "TOPSECRET"); err != nil {
		t.Fatal(err)
	}

	// Drain both subscribers to the latest committed event.
	wantSeq := eng.Bus().Seq(doc)
	drain := func(w *wireConn) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			w.call(&protocol.Message{Op: protocol.OpPresence, Doc: docID})
			var max uint64
			for _, ev := range w.pushes {
				if ev.Seq > max {
					max = ev.Seq
				}
			}
			if max >= wantSeq {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("subscriber stuck at seq %d, want %d", max, wantSeq)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	drain(bob)
	drain(aobs)

	var bobTexts, aliceTexts strings.Builder
	for _, ev := range bob.pushes {
		bobTexts.WriteString(ev.Text)
	}
	for _, ev := range aobs.pushes {
		aliceTexts.WriteString(ev.Text)
	}
	if strings.Contains(bobTexts.String(), "TOPSECRET") {
		t.Fatalf("revoked subscriber still receives plaintext pushes:\n%s", bobTexts.String())
	}
	if !strings.ContainsRune(bobTexts.String(), MaskRune) {
		t.Fatalf("revoked subscriber saw no masked push at all:\n%s", bobTexts.String())
	}
	if !strings.Contains(aliceTexts.String(), "TOPSECRET") {
		t.Fatalf("unrestricted subscriber lost plaintext:\n%s", aliceTexts.String())
	}
	if strings.ContainsRune(aliceTexts.String(), MaskRune) {
		t.Fatalf("unrestricted subscriber received a masked frame:\n%s", aliceTexts.String())
	}

	// The retired full-text and replay reads are unknown ops: they serve
	// bob nothing.
	for _, op := range []string{protocol.OpResync, protocol.OpText, protocol.OpOpenDoc} {
		resp := bob.callErr(&protocol.Message{Op: op, Doc: docID})
		if !strings.Contains(resp.Err, "unknown op") || resp.Text != "" || len(resp.Events) != 0 {
			t.Fatalf("%s answered a doc-level-denied user: %+v", op, resp)
		}
	}
}

// TestRevokedLaggingSubscriberGetsNoBase pins the base path under
// revocation: a subscriber whose document-level read is revoked, and who
// then falls further behind than the op ring reaches, is given no base but
// the end of its feed. Its pushes carry no text written after the
// revocation, and its replica's Read fails with the access error.
func TestRevokedLaggingSubscriberGetsNoBase(t *testing.T) {
	addr, eng, store := harnessStore(t, true)
	if err := store.CreateUser("carol", "pw-c"); err != nil {
		t.Fatal(err)
	}
	alice := login(t, addr, "alice", "pw-a")
	docID, err := alice.CreateDocument("revoked")
	if err != nil {
		t.Fatal(err)
	}
	ad, err := alice.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	if err := ad.Insert(0, "public "); err != nil {
		t.Fatal(err)
	}
	doc := util.ID(docID)
	// Carol's grant keeps the document closed by rule once bob's goes.
	bobRule, err := store.Grant("alice", doc, security.UserPrefix+"bob", core.RRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Grant("alice", doc, security.UserPrefix+"carol", core.RRead); err != nil {
		t.Fatal(err)
	}
	eng.Bus().SetRetention(8)
	bob := subscribeWire(t, addr, docID, "bob", "pw-b") // reads nothing until it calls
	bd, err := login(t, addr, "bob", "pw-b").Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	held, release := stallAcks(t, bd)

	if err := store.Revoke("alice", bobRule); err != nil {
		t.Fatal(err)
	}
	if err := ad.Insert(0, "TOPSECRET "); err != nil {
		t.Fatal(err)
	}
	<-held
	now := eng.Clock().Now()
	for i := 0; i < 30000; i++ {
		eng.Bus().MoveCursor(doc, "flood", i, now)
	}
	release()

	ended := func() *protocol.Event {
		for _, ev := range bob.pushes {
			if ev.Kind == protocol.EvLagged {
				return ev
			}
		}
		return nil
	}
	for deadline := time.Now().Add(10 * time.Second); ended() == nil; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the lagging revoked subscriber's feed never ended")
		}
		bob.callErr(&protocol.Message{Op: protocol.OpPresence, Doc: docID})
	}
	if ev := ended(); ev.Doc != docID || !strings.Contains(ev.Name, "denied") {
		t.Fatalf("feed end %+v, want doc %d and the access error", ev, docID)
	}
	bases := 0
	for _, ev := range bob.pushes {
		if ev.Kind == protocol.EvResync {
			bases++
		}
	}
	if texts := eventTexts(bob.pushes); strings.Contains(texts, "TOPSECRET") || bases != 1 {
		t.Fatalf("revoked subscriber got %d bases, want its first only; texts:\n%s", bases, texts)
	}

	_, err = bd.Read()
	var re *client.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "denied") {
		t.Fatalf("revoked replica's Read = %v, want the access error", err)
	}
	if strings.Contains(bd.Text(), "TOPSECRET") {
		t.Fatalf("revoked replica holds %q", bd.Text())
	}
}

// TestMaskFailClosedTail pins the fail-closed stance for partially
// identified text: runes beyond the event's instance-ID list are masked
// for restricted classes, not forwarded.
func TestMaskFailClosedTail(t *testing.T) {
	r := &redactor{
		class:  1,
		known:  map[util.ID]bool{1: true, 2: true},
		hidden: map[util.ID]bool{},
	}
	if got := r.mask("abcd", util.IDsOf([]util.ID{1, 2})); got != "ab██" {
		t.Fatalf("unidentified tail fails open: %q", got)
	}
	if got := r.mask("ab", util.IDsOf([]util.ID{1, 2})); got != "ab" {
		t.Fatalf("fully identified visible text masked: %q", got)
	}
}

// TestTakeBothNoCrossDrain pins the combined admission contract: when one
// bucket rejects, the token taken from the other is refunded, so rejected
// requests drain neither budget.
func TestTakeBothNoCrossDrain(t *testing.T) {
	now := time.Now()
	connB := newBucket(1, 2) // 2 tokens
	userB := newBucket(1, 1) // 1 token
	if ok, _ := takeBoth(connB, userB, now); !ok {
		t.Fatal("first request rejected with both budgets available")
	}
	ok, retry := takeBoth(connB, userB, now) // user bucket is empty now
	if ok {
		t.Fatal("admitted past the user budget")
	}
	if retry <= 0 {
		t.Fatal("combined reject without retry hint")
	}
	connB.mu.Lock()
	left := connB.tokens
	connB.mu.Unlock()
	if left < 1 {
		t.Fatalf("rejected request drained the connection budget: %.2f tokens left, want 1", left)
	}
	// Symmetric direction: empty connection bucket must not drain the user's.
	connB2 := newBucket(1, 1)
	userB2 := newBucket(1, 2)
	takeBoth(connB2, userB2, now)
	if ok, _ := takeBoth(connB2, userB2, now); ok {
		t.Fatal("admitted past the connection budget")
	}
	userB2.mu.Lock()
	left = userB2.tokens
	userB2.mu.Unlock()
	if left < 1 {
		t.Fatalf("rejected request drained the user budget: %.2f tokens left, want 1", left)
	}
}

// TestUndoRestoredRunesRedacted pins that undo and redo, which publish
// the instances they flip as positional items, pass the redactor like any
// edit: denied runes an undo restores reach both restricted subscribers
// masked, while both unrestricted
// subscribers get them in plaintext — so no frame is shared across
// visibility classes, and each class's frame is shared within it.
func TestUndoRestoredRunesRedacted(t *testing.T) {
	addr, eng, store := harnessStore(t, true)
	alice := login(t, addr, "alice", "pw-a")
	docID, err := alice.CreateDocument("restore")
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
	restricted := map[string]*wireConn{
		"bob/a": subscribeWire(t, addr, docID, "bob", "pw-b"),
		"bob/b": subscribeWire(t, addr, docID, "bob", "pw-b"),
	}
	unrestricted := map[string]*wireConn{
		"alice/a": subscribeWire(t, addr, docID, "alice", "pw-a"),
		"alice/b": subscribeWire(t, addr, docID, "alice", "pw-a"),
	}

	// Delete "CRE" inside the denied range, undo (restoring it), redo.
	if err := ad.Delete(9, 3); err != nil {
		t.Fatal(err)
	}
	if err := ad.Undo(protocol.ScopeLocal); err != nil {
		t.Fatal(err)
	}
	if err := ad.Redo(protocol.ScopeLocal); err != nil {
		t.Fatal(err)
	}
	wantSeq := eng.Bus().Seq(util.ID(docID))

	// restoredText is the text the undo events' items carry.
	restoredText := func(evs []*protocol.Event) string {
		var sb strings.Builder
		for _, ev := range evs {
			if ev.Kind == "undo" || ev.Kind == "redo" {
				for _, it := range ev.Batch {
					sb.WriteString(it.Text)
				}
			}
		}
		return sb.String()
	}
	check := func(subs map[string]*wireConn, want string) {
		t.Helper()
		for name, w := range subs {
			w.drainTo(docID, wantSeq)
			if got := restoredText(w.pushes); got != want {
				t.Fatalf("%s live undo/redo items carry %q, want %q", name, got, want)
			}
		}
	}
	check(restricted, "███")
	check(unrestricted, "CRE")
}
