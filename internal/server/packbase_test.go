package server

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"tendax/internal/core"
	"tendax/internal/protocol"
	"tendax/internal/security"
)

// prose returns exactly n bytes of space-separated words drawn from a
// seeded vocabulary of 512 random lowercase words, the kind of text
// keystroke-bench builds its documents from.
func prose(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 512)
	for i := range vocab {
		w := make([]byte, 2+rng.Intn(8))
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		vocab[i] = string(w)
	}
	var sb strings.Builder
	for sb.Len() < n {
		sb.WriteString(vocab[rng.Intn(len(vocab))])
		sb.WriteByte(' ')
	}
	return sb.String()[:n]
}

func inflate(t *testing.T, packed []byte) string {
	t.Helper()
	b, err := io.ReadAll(flate.NewReader(bytes.NewReader(packed)))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// baseOf reads pushes on w until the subscription's base of doc arrives,
// and returns it.
func baseOf(t *testing.T, w *wireConn, doc uint64) *protocol.Event {
	t.Helper()
	for {
		for _, ev := range w.pushes {
			if ev.Kind == protocol.EvResync && ev.Doc == doc {
				return ev
			}
		}
		m, err := w.codec.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == protocol.TypePush && m.Event != nil {
			w.pushes = append(w.pushes, m.Event)
		}
	}
}

// TestBasePackedFromPackMin pins where packing starts: a base of
// packMin-1 bytes goes out as Text, in the frame an unpacked base always
// had, and one of packMin bytes goes out as Packed, which inflates to the
// text.
func TestBasePackedFromPackMin(t *testing.T) {
	for _, n := range []int{packMin - 1, packMin} {
		addr, eng := harness(t, false)
		d, err := eng.CreateDocument("alice", "base")
		if err != nil {
			t.Fatal(err)
		}
		text := prose(n, 1)
		if _, err := d.AppendText("alice", text); err != nil {
			t.Fatal(err)
		}
		docID := uint64(d.ID())
		base := baseOf(t, subscribeWire(t, addr, docID, "bob", ""), docID)
		if n < packMin {
			want := &protocol.Event{Seq: base.Seq, Doc: docID, Kind: protocol.EvResync, Text: text, AtNS: base.AtNS}
			got := protocol.EncodeBinaryFrame(&protocol.Message{Type: protocol.TypePush, Event: base})
			if !bytes.Equal(got, protocol.EncodeBinaryFrame(&protocol.Message{Type: protocol.TypePush, Event: want})) {
				t.Errorf("a %d-byte base went out as %+v, want its text unpacked", n, base)
			}
			continue
		}
		if base.Text != "" || len(base.Packed) == 0 {
			t.Fatalf("a %d-byte base went out with %d bytes of text and %d packed, want it packed", n, len(base.Text), len(base.Packed))
		}
		if got := inflate(t, base.Packed); got != text {
			t.Fatalf("a %d-byte packed base inflates to %d bytes that differ from the text", n, len(got))
		}
	}
}

// TestPackedBaseIsMasked pins that a base is masked before it is packed:
// a late joiner whom a range rule denies a sentinel inside a 30k-character
// document gets a packed base that inflates to exactly
// MaskedTextFor(user, MaskRune), holding no rune of the sentinel, and its
// replica holds that text.
func TestPackedBaseIsMasked(t *testing.T) {
	addr, eng, store := harnessStore(t, true)
	d, err := eng.CreateDocument("alice", "masked")
	if err != nil {
		t.Fatal(err)
	}
	const sentinel = "ЖЖЖЖЖЖ" // a rune the prose never holds
	head := prose(15_000, 2)
	if _, err := d.AppendText("alice", head+sentinel+prose(15_000, 3)); err != nil {
		t.Fatal(err)
	}
	metas, err := d.RangeMeta(len(head), len([]rune(sentinel)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.DenyRange("alice", d.ID(), security.UserPrefix+"bob",
		core.RRead, metas[0].ID, metas[len(metas)-1].ID); err != nil {
		t.Fatal(err)
	}
	docID := uint64(d.ID())
	base := baseOf(t, subscribeWire(t, addr, docID, "bob", "pw-b"), docID)
	want, err := d.Snapshot().MaskedTextFor("bob", MaskRune)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want, strings.Repeat(string(MaskRune), len(metas))) {
		t.Fatal("the masked view holds no masked sentinel")
	}
	if base.Text != "" || len(base.Packed) == 0 {
		t.Fatalf("bob's base carries %d bytes of text and %d packed, want it packed", len(base.Text), len(base.Packed))
	}
	got := inflate(t, base.Packed)
	if got != want {
		t.Fatalf("bob's packed base inflates to a text (%d bytes) other than his masked view (%d bytes)", len(got), len(want))
	}
	if strings.ContainsRune(got, 'Ж') {
		t.Fatal("bob's packed base holds a rune of the denied sentinel")
	}
	bd, err := login(t, addr, "bob", "pw-b").Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Text() != want {
		t.Fatal("bob's replica does not hold his masked view")
	}
}

// TestPackedBaseBytes counts what a late joiner's open costs on a real
// connection: the subscribe's response and a 30k-character document's
// base frame come to at most half the text's bytes.
func TestPackedBaseBytes(t *testing.T) {
	addr, eng := harness(t, false)
	d, err := eng.CreateDocument("alice", "bytes")
	if err != nil {
		t.Fatal(err)
	}
	text := prose(30_000, 4)
	if _, err := d.AppendText("alice", text); err != nil {
		t.Fatal(err)
	}
	w := wireAt(t, addr, "bob", "")
	var in atomic.Int64
	w.codec.SetByteCounters(&in, nil)
	docID := uint64(d.ID())
	w.call(&protocol.Message{Op: protocol.OpSubscribe, Doc: docID})
	base := baseOf(t, w, docID)
	if inflate(t, base.Packed) != text {
		t.Fatal("the packed base does not inflate to the text")
	}
	t.Logf("open: %d bytes in for %d bytes of text", in.Load(), len(text))
	if got := in.Load(); 2*got > int64(len(text)) {
		t.Errorf("the open took %d bytes in for %d bytes of text, want at most half", got, len(text))
	}
}
