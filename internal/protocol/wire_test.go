package protocol

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// wireStructs walks the struct types reachable from Message: the envelope
// and everything it nests, each once, in first-seen order.
func wireStructs() []reflect.Type {
	var out []reflect.Type
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(t reflect.Type) {
		for t.Kind() == reflect.Slice || t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		if t.Kind() != reflect.Struct || seen[t] {
			return
		}
		seen[t] = true
		out = append(out, t)
		for i := 0; i < t.NumField(); i++ {
			walk(t.Field(i).Type)
		}
	}
	walk(reflect.TypeOf(Message{}))
	return out
}

// markNonZero records "Struct.Field" for every non-zero field under v.
func markNonZero(v reflect.Value, seen map[string]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			markNonZero(v.Elem(), seen)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			markNonZero(v.Index(i), seen)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); !f.IsZero() {
				seen[v.Type().Name()+"."+v.Type().Field(i).Name] = true
				markNonZero(f, seen)
			}
		}
	}
}

// TestV3GoldenFrames pins the v3 wire format to the byte. The golden file
// holds one frame per seed, written by the last hand-written encoder (see
// its header); whatever produces frames today must produce those bytes —
// symbol indexes, bit positions, ID-list runs and all — and must read them
// back as the seed. The seeds, in turn, must leave no wire field untested.
func TestV3GoldenFrames(t *testing.T) {
	f, err := os.Open("testdata/v3_frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var golden [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		frame, err := hex.DecodeString(line)
		if err != nil {
			t.Fatalf("golden line %d: %v", len(golden), err)
		}
		golden = append(golden, frame)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(seedFrames) {
		t.Fatalf("%d golden frames for %d seeds: a new seed needs a new golden line, appended", len(golden), len(seedFrames))
	}

	nonZero := map[string]bool{}
	for i, s := range seedFrames {
		var m Message
		if err := json.Unmarshal([]byte(s), &m); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		markNonZero(reflect.ValueOf(m), nonZero)
		if got := EncodeBinaryFrame(&m); !bytes.Equal(got, golden[i]) {
			t.Errorf("seed %d %s\n encodes to %x\n golden is  %x", i, s, got, golden[i])
		}
		back, err := NewCodec(rwc{Reader: bytes.NewReader(golden[i])}).Recv()
		if err != nil {
			t.Errorf("seed %d: golden frame rejected: %v", i, err)
			continue
		}
		if got, want := canon(t, back), canon(t, &m); !bytes.Equal(got, want) {
			t.Errorf("seed %d: golden frame decodes to %s, want %s", i, got, want)
		}
	}
	for _, st := range wireStructs() {
		for i := 0; i < st.NumField(); i++ {
			if name := st.Name() + "." + st.Field(i).Name; !nonZero[name] {
				t.Errorf("%s is zero in every seed frame: its wire bytes are pinned by nothing", name)
			}
		}
	}
}

// wireBits pins every table's bit order by field name, bit 0 first. The
// order is on the wire: a name may be appended here (with its table line
// and a golden frame), never moved or removed.
var wireBits = map[string]string{
	"Message": "Type ID Op Doc OK Seq Ops Results Event Text Pos N Err OpID Snap IDs Events Full Since Ver " +
		"User Password Name Kind Value Scope Clip Version Docs Versions Present History Code RetryMS Shards " +
		"Query Hits Sources",
	"EditOp":     "Kind After Prev Pos Text N Chars Span Value SrcDoc SrcChars",
	"EditResult": "OpID IDs Span Pos",
	"BatchItem":  "Kind Pos Text N IDs",
	"Event":      "Seq Doc Kind User Pos Text N Name Batch AtNS",
	"Clip":       "Text SrcDoc SrcChars",
	"DocInfo":    "ID Name Creator Size State Authors ModifiedNS",
	"Version":    "ID Name Author AtNS",
	"Presence":   "User Cursor",
	"HistoryOp":  "ID User Kind Chars Undone",
	"QueryReq":   "Kind Terms InHeadings Rank Limit Doc Pos N",
	"SearchHit":  "Doc Score Snippet",
	"SourceRef":  "SrcDoc SrcName Chars From To",
}

// setNonZero gives v a non-zero value of its type.
func setNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint64:
		v.SetUint(1)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		setNonZero(v.Index(0))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		setNonZero(v.Elem())
	case reflect.Struct:
		setNonZero(v.Field(0))
	default:
		panic("setNonZero: a wire struct grew a field of kind " + v.Kind().String())
	}
}

// checkSchema holds one table to its struct, going by what the table does
// rather than by what it says: setting a struct field must change the
// output of exactly one table line, the value must come back through
// decode, and the lines must sit in the pinned order. It returns the
// struct's name.
func checkSchema[T any](t *testing.T, s *schema[T]) string {
	t.Helper()
	typ := reflect.TypeOf((*T)(nil)).Elem()
	if s.name != typ.Name() {
		t.Errorf("schema of %s is named %q", typ.Name(), s.name)
	}
	if len(s.fields) > 64 {
		t.Errorf("%s: %d table lines do not fit a 64-bit presence bitmap", s.name, len(s.fields))
	}
	// lines is what each table line makes of v: "" when absent, else the
	// bytes it writes.
	lines := func(v *T) []string {
		out := make([]string, len(s.fields))
		for i, f := range s.fields {
			if f.has(v) {
				out[i] = "+" + string(f.enc(nil, v))
			}
		}
		return out
	}
	base := lines(new(T))
	order := make([]string, len(s.fields))
	for j := 0; j < typ.NumField(); j++ {
		name := typ.Field(j).Name
		v := new(T)
		setNonZero(reflect.ValueOf(v).Elem().Field(j))
		var coded []int
		for i, l := range lines(v) {
			if l != base[i] {
				coded = append(coded, i)
			}
		}
		if len(coded) != 1 {
			t.Errorf("%s.%s is coded by table lines %v, want exactly one: a new field needs one appended line", s.name, name, coded)
			continue
		}
		order[coded[0]] = name
		d := &bdec{b: s.append(nil, v)}
		back := new(T)
		if err := s.decode(d, back); err != nil || d.rem() != 0 || !reflect.DeepEqual(back, v) {
			t.Errorf("%s.%s does not round-trip: got %+v (err %v, %d bytes left), want %+v", s.name, name, back, err, d.rem(), v)
		}
	}
	if got := strings.Join(order, " "); got != wireBits[s.name] {
		t.Errorf("%s table order\n  is  %s\n  pin %s\nbit positions are on the wire: append, never insert, reorder or remove", s.name, got, wireBits[s.name])
	}
	return s.name
}

// TestSchemaCoversStruct: "added a field, forgot the codec" (or moved a
// table line) fails here, at go test, instead of waiting for a fuzzer.
func TestSchemaCoversStruct(t *testing.T) {
	checked := map[string]bool{
		checkSchema(t, &messageSchema):    true,
		checkSchema(t, &editOpSchema):     true,
		checkSchema(t, &editResultSchema): true,
		checkSchema(t, &batchItemSchema):  true,
		checkSchema(t, &eventSchema):      true,
		checkSchema(t, &clipSchema):       true,
		checkSchema(t, &docInfoSchema):    true,
		checkSchema(t, &versionSchema):    true,
		checkSchema(t, &presenceSchema):   true,
		checkSchema(t, &historyOpSchema):  true,
		checkSchema(t, &queryReqSchema):   true,
		checkSchema(t, &searchHitSchema):  true,
		checkSchema(t, &sourceRefSchema):  true,
	}
	for _, st := range wireStructs() {
		if !checked[st.Name()] {
			t.Errorf("wire struct %s has a table nobody checks: add it above", st.Name())
		}
	}
}

// TestBinaryDecoderRejects pins the decoder's behaviour on hostile input:
// each of these must fail with an error, never decode partially or panic.
func TestBinaryDecoderRejects(t *testing.T) {
	for _, c := range []struct {
		name    string
		payload []byte
		errPart string
	}{
		{"empty payload", nil, "truncated varint"},
		{"unknown Message bit", appendUvarint(nil, 1<<38), "unknown Message field bit 38"},
		{"unknown EditOp bit", []byte{1 << 6, 1, 0x80, 0x10}, "unknown EditOp field bit 11"},
		{"unknown Event bit", []byte{0x80, 0x02, 0x80, 0x08}, "unknown Event field bit 10"},
		{"trailing byte", []byte{0x01, 0x01, 0x00}, "trailing bytes"},
		{"truncated varint", []byte{0x02, 0x80}, "truncated varint"},
		{"string past the frame", []byte{0x80, 0x04, 0x05, 'a'}, "exceeds frame"},
		{"invalid UTF-8", []byte{0x80, 0x04, 0x02, 0xff, 0xfe}, "not valid UTF-8"},
		{"symbol beyond the table", []byte{0x01, 0x7f}, "unknown symbol"},
		{"struct list past the frame", []byte{1 << 6, 0x7f, 0x00}, "exceeds frame"},
		{"string list past the frame", append(appendUvarint(nil, 1<<35), 0x02, 0x09), "exceeds frame"},
		{"ID list over the limit", append([]byte{0x80, 0x80, 0x02}, appendUvarint(nil, maxListElems+1)...), "exceeds limit"},
		{"ID run past its list", []byte{0x80, 0x80, 0x02, 0x02, 0x02, 0x05}, "overflows list"},
	} {
		m, err := DecodeBinaryPayload(c.payload)
		if err == nil {
			t.Errorf("%s: decoded to %s", c.name, canon(t, m))
		} else if !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.errPart)
		}
	}
}

// hotFrames are the three frames one keystroke costs on a v3 connection —
// the 1-key edit, its ack, the 1-key batch push — with the allocations one
// Codec.Recv of each makes (the message, and one per multi-byte string,
// list or nested struct), and the allocations one RecvInto into a message
// that held the same frame before makes: only what a receiver keeps, the
// strings and ID lists.
var hotFrames = []struct {
	name           string
	m              *Message
	recvAllocs     float64
	recvIntoAllocs float64
}{
	{"edit", &Message{Type: TypeRequest, ID: 31337, Op: OpEdit, Doc: 7,
		Ops: []EditOp{{Kind: EditInsert, Prev: true, Text: "k"}}}, 2, 0},
	{"ack", &Message{Type: TypeResponse, ID: 31337, OK: true,
		Results: []EditResult{{OpID: 31344, IDs: []uint64{31345}, Pos: 6666}}}, 3, 1},
	{"push", &Message{Type: TypePush, Event: &Event{Seq: 31337, Doc: 7, Kind: "batch", User: "ann", AtNS: 1,
		Batch: []BatchItem{{Kind: EditInsert, Pos: 6666, Text: "k", IDs: []uint64{31345}}}}}, 5, 3},
}

// TestCodecAllocs holds the hot frames to their allocation budget: encoding
// into a reused buffer allocates nothing, Codec.Recv allocates the message
// and what it holds but not the payload, and RecvInto only what a receiver
// keeps.
func TestCodecAllocs(t *testing.T) {
	for _, c := range hotFrames {
		buf := appendBinaryMessage(nil, c.m)
		if n := testing.AllocsPerRun(200, func() { buf = appendBinaryMessage(buf[:0], c.m) }); n != 0 {
			t.Errorf("%s: encode into a reused buffer: %v allocs, want 0", c.name, n)
		}
		const frames = 201 // AllocsPerRun makes one warm-up call
		stream := bytes.Repeat(EncodeBinaryFrame(c.m), frames)
		codec := NewCodec(rwc{Reader: bytes.NewReader(stream)})
		n := testing.AllocsPerRun(frames-1, func() {
			if _, err := codec.Recv(); err != nil {
				t.Fatal(err)
			}
		})
		if n > c.recvAllocs {
			t.Errorf("%s: Codec.Recv: %v allocs, want at most %v", c.name, n, c.recvAllocs)
		}
		codec = NewCodec(rwc{Reader: bytes.NewReader(stream)})
		var m Message
		n = testing.AllocsPerRun(frames-1, func() {
			if err := codec.RecvInto(&m); err != nil {
				t.Fatal(err)
			}
		})
		if n > c.recvIntoAllocs {
			t.Errorf("%s: Codec.RecvInto: %v allocs, want at most %v", c.name, n, c.recvIntoAllocs)
		}
	}
}

// BenchmarkHotFrames prices the codec alone, per frame: encode into a
// reused buffer (what Codec.Send does), Codec.Recv off a memory stream, and
// the stand-alone DecodeBinaryPayload. EXPERIMENTS.md E16 quotes it.
func BenchmarkHotFrames(b *testing.B) {
	for _, c := range hotFrames {
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			buf := appendBinaryMessage(nil, c.m)
			for i := 0; i < b.N; i++ {
				buf = appendBinaryMessage(buf[:0], c.m)
			}
		})
		b.Run(c.name+"/recv", func(b *testing.B) {
			b.ReportAllocs()
			r := bytes.NewReader(nil)
			codec := NewCodec(rwc{Reader: r})
			stream := bytes.Repeat(EncodeBinaryFrame(c.m), 1024)
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					r.Reset(stream)
				}
				if _, err := codec.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			payload := appendBinaryMessage(nil, c.m)
			for i := 0; i < b.N; i++ {
				if _, err := DecodeBinaryPayload(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
