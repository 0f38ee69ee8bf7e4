package protocol

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// rwc adapts a reader+writer pair into the codec's transport.
type rwc struct {
	io.Reader
	io.Writer
}

func (rwc) Close() error { return nil }

// canon is m's canonical form: Marshal∘Unmarshal must be idempotent on it,
// and a v3 frame of m must decode back to it.
func canon(t testing.TB, m *Message) []byte {
	t.Helper()
	c, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// frames the codec must round-trip: one per protocol surface. The hellos
// asking for version 2 are wire data like any other; a server answers them
// with v1.
var seedFrames = []string{
	// v1 request/response/push shapes.
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
}

// FuzzCodecRoundTrip feeds arbitrary bytes through the codec: every frame
// the decoder accepts must survive encode→decode with an identical
// canonical form — the hello and every v1 exchange are JSON frames, so
// the codec must never mangle one.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, s := range seedFrames {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if bytes.ContainsRune(data, '\n') {
			data = bytes.ReplaceAll(data, []byte("\n"), []byte(" "))
		}
		in := NewCodec(rwc{Reader: bytes.NewReader(append(data, '\n'))})
		m, err := in.Recv()
		if err != nil {
			return // not a frame; the codec rejected it cleanly
		}
		var buf bytes.Buffer
		out := NewCodec(rwc{Reader: &buf, Writer: &buf})
		if err := out.Send(m); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		m2, err := out.Recv()
		if err != nil {
			t.Fatalf("decode of re-encoded frame failed: %v", err)
		}
		// Compare canonical forms: Marshal∘Unmarshal must be idempotent.
		if c1, c2 := canon(t, m), canon(t, m2); !bytes.Equal(c1, c2) {
			t.Fatalf("round-trip drift:\n first %s\n second %s", c1, c2)
		}
		// The same logical message must survive the v3 binary codec with
		// an identical canonical form: JSON is the form binary frames are
		// checked against, so the two encodings must agree on every message
		// the JSON decoder accepts.
		m3, err := decodeBinaryMessage(appendBinaryMessage(nil, m))
		if err != nil {
			t.Fatalf("binary re-encode of accepted frame failed: %v", err)
		}
		if c1, c3 := canon(t, m), canon(t, m3); !bytes.Equal(c1, c3) {
			t.Fatalf("json/binary drift:\n json   %s\n binary %s", c1, c3)
		}
	})
}

// FuzzBinaryPayload feeds arbitrary bytes to the v3 binary decoder: it
// must reject or accept cleanly (no panics, no unbounded allocation), and
// everything it accepts must re-encode to a stable canonical form under
// both the binary and the JSON codec.
func FuzzBinaryPayload(f *testing.F) {
	for _, s := range seedFrames {
		var m Message
		if err := json.Unmarshal([]byte(s), &m); err != nil {
			f.Fatal(err)
		}
		f.Add(appendBinaryMessage(nil, &m))
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeBinaryMessage(payload)
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
		// ...and the JSON codec must agree on the canonical form.
		var buf bytes.Buffer
		out := NewCodec(rwc{Reader: &buf, Writer: &buf})
		if err := out.Send(m); err != nil {
			t.Fatalf("JSON re-encode of binary-accepted message failed: %v", err)
		}
		m4, err := out.Recv()
		if err != nil {
			t.Fatalf("JSON decode of binary-accepted message failed: %v", err)
		}
		if c4 := canon(t, m4); !bytes.Equal(c1, c4) {
			t.Fatalf("binary→json drift:\n binary %s\n json   %s", c1, c4)
		}
	})
}

// TestCodecSeedFramesRoundTrip pins the seed corpus deterministically (the
// fuzz target only exercises it under -fuzz).
func TestCodecSeedFramesRoundTrip(t *testing.T) {
	for _, s := range seedFrames {
		in := NewCodec(rwc{Reader: bytes.NewReader(append([]byte(s), '\n'))})
		m, err := in.Recv()
		if err != nil {
			t.Fatalf("seed %q rejected: %v", s, err)
		}
		var buf bytes.Buffer
		out := NewCodec(rwc{Reader: &buf, Writer: &buf})
		if err := out.Send(m); err != nil {
			t.Fatal(err)
		}
		m2, err := out.Recv()
		if err != nil {
			t.Fatal(err)
		}
		c1, _ := json.Marshal(m)
		c2, _ := json.Marshal(m2)
		if !bytes.Equal(c1, c2) {
			t.Fatalf("seed %q drifted: %s vs %s", s, c1, c2)
		}
	}
}

// TestBinarySeedFramesRoundTrip pins every seed frame through the v3
// binary codec deterministically: JSON-decode, binary encode and decode,
// and require the canonical forms to match — plus a framed pass through a
// binary-enabled codec pair, with a JSON frame interleaved mid-stream to
// pin the per-frame auto-detection.
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
	// Framed: a binary sender and an auto-detecting receiver, with a JSON
	// frame spliced between two binary ones on the same stream.
	var buf bytes.Buffer
	sender := NewCodec(rwc{Reader: &buf, Writer: &buf})
	receiver := sender
	sender.EnableBinary()
	var want []string
	for i, s := range seedFrames {
		var m Message
		if err := json.Unmarshal([]byte(s), &m); err != nil {
			t.Fatal(err)
		}
		want = append(want, string(canon(t, &m)))
		if i == 3 {
			buf.WriteString(s + "\n") // raw JSON line mid-stream
			want = append(want, string(canon(t, &m)))
		}
		if err := sender.Send(&m); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		m, err := receiver.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		c, _ := json.Marshal(m)
		if string(c) != w {
			t.Fatalf("frame %d drifted: %s vs %s", i, c, w)
		}
	}
}

// TestV2FrameFields pins the edit-batch wire surface in its JSON form: the
// anchors of a batch edit request decode into the typed fields the server
// relies on.
func TestV2FrameFields(t *testing.T) {
	const frame = `{"type":"req","id":7,"op":"edit","doc":7,"ops":[` +
		`{"kind":"insert","after":0,"text":"a"},` +
		`{"kind":"insert","after":12,"text":"b"},` +
		`{"kind":"insert","prev":true,"text":"c"}]}`
	in := NewCodec(rwc{Reader: bytes.NewReader(append([]byte(frame), '\n'))})
	m, err := in.Recv()
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
