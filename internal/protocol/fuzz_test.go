package protocol

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// rwc adapts a reader+writer pair into the codec's transport.
type rwc struct {
	io.Reader
	io.Writer
}

func (rwc) Close() error { return nil }

// canon is m's canonical form, its JSON spelling: Marshal∘Unmarshal must
// be idempotent on it, and a v3 frame of m must decode back to it. JSON is
// the tests' reference spelling only; no connection carries it.
func canon(t testing.TB, m *Message) []byte {
	t.Helper()
	c, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// frames the codec must round-trip, in their canonical JSON spelling: one
// per protocol surface. The hellos asking for version 2 and the version-1
// request ops are wire data like any other; a server refuses them.
var seedFrames = []string{
	// Version-1 request/response/push shapes.
	`{"type":"req","id":1,"op":"login","user":"alice","password":"pw"}`,
	`{"type":"req","id":2,"op":"insert","doc":7,"pos":3,"text":"héllo\nworld"}`,
	`{"type":"req","id":3,"op":"delete","doc":7,"pos":0,"n":4}`,
	`{"type":"resp","id":2,"ok":true,"opId":99,"seq":12,"snap":4}`,
	`{"type":"resp","id":4,"ok":true,"docs":[{"id":1,"name":"a","creator":"u","size":2,"state":"draft","modifiedNs":5}]}`,
	`{"type":"push","event":{"seq":3,"doc":7,"kind":"insert","user":"bob","pos":1,"text":"x","atNs":123}}`,
	`{"type":"push","event":{"doc":7,"kind":"lagged","seq":44,"atNs":1}}`,
	`{"type":"req","id":5,"op":"paste","doc":7,"pos":2,"clip":{"text":"ab","srcDoc":3,"srcChars":[10,11]}}`,
	// hello, edit batches, anchors, delta resync.
	`{"type":"req","id":6,"op":"hello","ver":2}`,
	`{"type":"resp","id":6,"ok":true,"ver":2}`,
	`{"type":"req","id":7,"op":"edit","doc":7,"ops":[{"kind":"insert","after":12,"text":"ab"},{"kind":"insert","prev":true,"text":"c"},{"kind":"delete","chars":[4,5]},{"kind":"layout","chars":[4,6],"span":"bold","value":"true"},{"kind":"note","after":9,"text":"n"}]}`,
	`{"type":"req","id":8,"op":"edit","doc":7,"ops":[{"kind":"insert","after":0,"text":"front"}]}`,
	`{"type":"resp","id":7,"ok":true,"results":[{"opId":3,"ids":[20,21],"pos":5},{"opId":4,"span":30,"pos":0}]}`,
	`{"type":"req","id":9,"op":"anchors","doc":7,"pos":4,"n":2}`,
	`{"type":"resp","id":9,"ok":true,"ids":[15,16],"seq":9,"snap":3}`,
	`{"type":"req","id":10,"op":"resync","doc":7,"since":41}`,
	`{"type":"resp","id":10,"ok":true,"events":[{"seq":42,"doc":7,"kind":"batch","user":"u","batch":[{"kind":"insert","pos":0,"text":"a","ids":[50]},{"kind":"delete","pos":2,"n":1,"ids":[51]}],"atNs":9}]}`,
	`{"type":"resp","id":11,"ok":true,"full":true,"text":"whole doc","seq":50,"snap":7}`,
	// Query frames: search and provenance requests plus their hit-list and
	// source-run responses, including a float score. The error text of the
	// last one is pinned by its golden frame.
	`{"type":"req","id":12,"op":"query","query":{"kind":"search","terms":["database","editor"],"inHeadings":true,"rank":"most-cited","limit":10}}`,
	`{"type":"req","id":13,"op":"query","query":{"kind":"sources","doc":7,"pos":4,"n":16}}`,
	`{"type":"resp","id":12,"ok":true,"hits":[{"doc":{"id":3,"name":"notes","creator":"alice","size":42,"state":"draft","authors":["alice","bob"],"modifiedNs":77},"score":1.25,"snippet":"some té██t…"},{"doc":{"id":9,"name":"q","creator":"bob"}}]}`,
	`{"type":"resp","id":13,"ok":true,"sources":[{"srcDoc":3,"srcName":"notes","chars":4,"from":0,"to":4},{"chars":2,"from":4,"to":6}]}`,
	`{"type":"resp","id":14,"err":"server: query requires the CapQuery hello capability","code":"unsupported"}`,
	// The rest of the vocabulary, so that every field of every wire struct
	// is non-zero in at least one frame (TestV3GoldenFrames checks it):
	// version/presence/history lists, the v1 layout/undo/version requests,
	// the typed throttle error, the hello response's shard count, position-
	// addressed edit ops, rename and delete pushes, strings outside the
	// symbol table ("custom", "bold"), a negative correlation ID, and ID
	// lists that descend, jump and run.
	`{"type":"resp","id":15,"ok":true,"versions":[{"id":1,"name":"v1","author":"alice","atNs":1700000000000000000},{"id":2,"name":"final draft","author":"bob","atNs":-5}]}`,
	`{"type":"resp","id":16,"ok":true,"present":[{"user":"alice","cursor":12},{"user":"bob","cursor":0}]}`,
	`{"type":"resp","id":17,"ok":true,"history":[{"id":5,"user":"alice","kind":"insert","chars":3,"undone":true},{"id":6,"user":"bob","kind":"custom","chars":1,"undone":false}]}`,
	`{"type":"req","id":18,"op":"layout","doc":7,"pos":2,"n":5,"kind":"bold","value":"true"}`,
	`{"type":"req","id":19,"op":"undo","doc":7,"scope":"global"}`,
	`{"type":"req","id":20,"op":"version","doc":7,"name":"release-1"}`,
	`{"type":"req","id":21,"op":"versiontext","doc":7,"version":3}`,
	`{"type":"resp","id":22,"err":"server: rate limit exceeded","code":"throttled","retryMs":250}`,
	`{"type":"resp","id":23,"ok":true,"ver":3,"shards":4}`,
	`{"type":"req","id":-24,"op":"edit","doc":7,"ops":[{"kind":"insert","pos":-1,"text":"tail"},{"kind":"delete","pos":3,"n":2},{"kind":"custom","chars":[9,7,5,100,101,102,3]}]}`,
	`{"type":"push","event":{"seq":8,"doc":7,"kind":"rename","user":"alice","pos":0,"name":"new title","atNs":77}}`,
	`{"type":"push","event":{"seq":9,"doc":7,"kind":"delete","user":"bob","pos":4,"n":3,"atNs":78}}`,
	`{"type":"resp","id":25,"ok":true,"ids":[40,30,20,21,22,1000000,5],"seq":10,"snap":2}`,
	// The hello every library client sends.
	`{"type":"req","op":"hello","ver":3}`,
	// A paste as a one-op edit, naming its source.
	`{"type":"req","id":26,"op":"edit","doc":7,"ops":[{"kind":"insert","pos":2,"text":"ab","srcDoc":3,"srcChars":[10,11]}]}`,
	// A packed base: its text deflated, bytes that are not UTF-8.
	`{"type":"push","event":{"seq":51,"doc":7,"kind":"resync","user":"","pos":0,"packed":"ACIA3f9ow6lsbG8g4paI4paIIGjDqWxsbyDilojiloggaMOpbGxvAQAA//8=","atNs":10}}`,
}

// FuzzCodecRoundTrip feeds arbitrary bytes to the codec and to the JSON
// reference decoder. The codec must refuse them cleanly unless they open
// with the v3 magic byte — a JSON line is never a frame — and must read
// them the same whether they arrive at once or at most k bytes a Read.
// Every message the JSON decoder accepts must survive a send and a
// receive through a Codec with an identical canonical form, its frame
// sent twice and trickled k bytes a Read, so that headers, payloads and
// the boundary between frames are split at every offset: codec drift is a
// protocol break.
func FuzzCodecRoundTrip(f *testing.F) {
	for i, s := range seedFrames {
		f.Add([]byte(s), uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		raw, err := NewCodec(rwc{Reader: bytes.NewReader(data)}).Recv()
		if err == nil && data[0] != binMagic {
			t.Fatalf("codec accepted a frame opening with %#x: %s", data[0], canon(t, raw))
		}
		split, serr := NewCodec(rwc{Reader: &trickle{data, int(k) + 1}}).Recv()
		if fmt.Sprint(err) != fmt.Sprint(serr) || err == nil && !reflect.DeepEqual(raw, split) {
			t.Fatalf("read at once: %v, %d bytes a Read: %v", err, int(k)+1, serr)
		}
		var m Message
		if json.Unmarshal(data, &m) != nil {
			return // not a message in the reference spelling
		}
		var sent bytes.Buffer
		if err := NewCodec(rwc{Writer: &sent}).Send(&m); err != nil {
			t.Fatalf("send of accepted message failed: %v", err)
		}
		codec := NewCodec(rwc{Reader: &trickle{bytes.Repeat(sent.Bytes(), 2), int(k) + 1}})
		for i := 0; i < 2; i++ {
			m2, err := codec.Recv()
			if err != nil {
				t.Fatalf("receive of sent message %d failed: %v", i, err)
			}
			if c1, c2 := canon(t, &m), canon(t, m2); !bytes.Equal(c1, c2) {
				t.Fatalf("round-trip drift:\n sent     %s\n received %s", c1, c2)
			}
		}
		if _, err := codec.Recv(); err != io.EOF {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
	})
}

// trickle returns its bytes at most k a Read.
type trickle struct {
	b []byte
	k int
}

func (r *trickle) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.k)], r.b)
	r.b = r.b[n:]
	return n, nil
}

// FuzzBinaryPayload feeds arbitrary bytes to the v3 binary decoder: it
// must reject or accept cleanly (no panics, no unbounded allocation), and
// everything it accepts must re-encode to a stable canonical form, one
// its JSON spelling reproduces. Decoding into a message that held a
// different frame — on the decoder that decoded it, as a read loop does —
// must give exactly what a fresh decode gives: no field of one frame may
// leak into the next.
func FuzzBinaryPayload(f *testing.F) {
	var seeds [][]byte
	for _, s := range seedFrames {
		var m Message
		if err := json.Unmarshal([]byte(s), &m); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, appendBinaryMessage(nil, &m))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeBinaryMessage(payload)
		// Each seed alone before the payload, then all of them in a row,
		// which leaves storage parked for the fields the last one lacks.
		for i := 0; i <= len(seeds); i++ {
			before := seeds
			if i < len(seeds) {
				before = seeds[i : i+1]
			}
			reused, rerr := decodeAfter(t, before, payload)
			if (err == nil) != (rerr == nil) {
				t.Fatalf("fresh decode error %v, decode after %d frames: %v", err, len(before), rerr)
			}
			if err == nil && !reflect.DeepEqual(m, reused) {
				t.Fatalf("decode after %d frames differs from a fresh decode:\n fresh  %s\n reused %s",
					len(before), canon(t, m), canon(t, reused))
			}
		}
		if err != nil {
			return // rejected cleanly
		}
		// Accepted: binary round-trip must be idempotent...
		m2, err := decodeBinaryMessage(appendBinaryMessage(nil, m))
		if err != nil {
			t.Fatalf("re-encode of accepted payload failed: %v", err)
		}
		c1 := canon(t, m)
		if c2 := canon(t, m2); !bytes.Equal(c1, c2) {
			t.Fatalf("binary round-trip drift:\n first %s\n second %s", c1, c2)
		}
		// ...and the JSON spelling must agree on the canonical form.
		var m4 Message
		if err := json.Unmarshal(c1, &m4); err != nil {
			t.Fatalf("JSON decode of binary-accepted message failed: %v", err)
		}
		if c4 := canon(t, &m4); !bytes.Equal(c1, c4) {
			t.Fatalf("binary→json drift:\n binary %s\n json   %s", c1, c4)
		}
	})
}

// decodeAfter decodes the payloads before, then payload, into one message
// on one decoder, and returns the message.
func decodeAfter(t *testing.T, before [][]byte, payload []byte) (*Message, error) {
	var (
		m Message
		d bdec
	)
	for _, b := range before {
		d.b, d.pos = b, 0
		if err := d.messageInto(&m); err != nil {
			t.Fatalf("seed frame: %v", err)
		}
	}
	d.b, d.pos = payload, 0
	return &m, d.messageInto(&m)
}

// TestCodecSeedFramesRoundTrip pins the seed corpus deterministically (the
// fuzz target only exercises it under -fuzz): each seed's JSON line is
// refused by a Codec, and the message it spells survives one.
func TestCodecSeedFramesRoundTrip(t *testing.T) {
	for _, s := range seedFrames {
		_, err := NewCodec(rwc{Reader: strings.NewReader(s + "\n")}).Recv()
		if err == nil || !strings.Contains(err.Error(), "v3") {
			t.Fatalf("seed %q as a JSON line: %v, want a refusal naming v3", s, err)
		}
		var m Message
		if err := json.Unmarshal([]byte(s), &m); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		codec := NewCodec(rwc{Reader: &buf, Writer: &buf})
		if err := codec.Send(&m); err != nil {
			t.Fatal(err)
		}
		m2, err := codec.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if c1, c2 := canon(t, &m), canon(t, m2); !bytes.Equal(c1, c2) {
			t.Fatalf("seed %q drifted: %s vs %s", s, c1, c2)
		}
	}
}

// TestBinarySeedFramesRoundTrip pins every seed frame through the v3
// binary codec deterministically: JSON-decode, binary encode and decode,
// and require the canonical forms to match — plus a framed pass through a
// codec pair, with a JSON line spliced mid-stream, which the receiver must
// refuse once it reaches it.
func TestBinarySeedFramesRoundTrip(t *testing.T) {
	for _, s := range seedFrames {
		var m Message
		if err := json.Unmarshal([]byte(s), &m); err != nil {
			t.Fatal(err)
		}
		m2, err := decodeBinaryMessage(appendBinaryMessage(nil, &m))
		if err != nil {
			t.Fatalf("seed %q binary round-trip: %v", s, err)
		}
		if c1, c2 := canon(t, &m), canon(t, m2); !bytes.Equal(c1, c2) {
			t.Fatalf("seed %q drifted under binary: %s vs %s", s, c1, c2)
		}
	}
	// Framed: the frames of seeds 0..3, then a JSON line, then the rest.
	const splice = 3
	var buf bytes.Buffer
	codec := NewCodec(rwc{Reader: &buf, Writer: &buf})
	var want []string
	for i, s := range seedFrames {
		var m Message
		if err := json.Unmarshal([]byte(s), &m); err != nil {
			t.Fatal(err)
		}
		if i <= splice {
			want = append(want, string(canon(t, &m)))
		}
		if err := codec.Send(&m); err != nil {
			t.Fatal(err)
		}
		if i == splice {
			buf.WriteString(s + "\n") // raw JSON line mid-stream
		}
	}
	for i, w := range want {
		m, err := codec.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if c := canon(t, m); string(c) != w {
			t.Fatalf("frame %d drifted: %s vs %s", i, c, w)
		}
	}
	if m, err := codec.Recv(); err == nil || !strings.Contains(err.Error(), "v3") {
		t.Fatalf("JSON line mid-stream: %v (decoded %v), want a refusal naming v3", err, m)
	}
}

// TestV2FrameFields pins the edit-batch wire surface: the anchors of a
// batch edit request, spelled in JSON, survive a Codec into the typed
// fields the server relies on.
func TestV2FrameFields(t *testing.T) {
	const frame = `{"type":"req","id":7,"op":"edit","doc":7,"ops":[` +
		`{"kind":"insert","after":0,"text":"a"},` +
		`{"kind":"insert","after":12,"text":"b"},` +
		`{"kind":"insert","prev":true,"text":"c"}]}`
	var sent Message
	if err := json.Unmarshal([]byte(frame), &sent); err != nil {
		t.Fatal(err)
	}
	m, err := NewCodec(rwc{Reader: bytes.NewReader(EncodeBinaryFrame(&sent))}).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Ops) != 3 {
		t.Fatalf("ops %d", len(m.Ops))
	}
	// "after":0 (front-of-document) must be distinguishable from an
	// absent anchor — that is why After is a pointer.
	if m.Ops[0].After == nil || *m.Ops[0].After != 0 {
		t.Fatalf("front anchor lost: %+v", m.Ops[0])
	}
	if m.Ops[1].After == nil || *m.Ops[1].After != 12 {
		t.Fatalf("anchor lost: %+v", m.Ops[1])
	}
	if m.Ops[2].After != nil || !m.Ops[2].Prev {
		t.Fatalf("prev anchor lost: %+v", m.Ops[2])
	}
}
