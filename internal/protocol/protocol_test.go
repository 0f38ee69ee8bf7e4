package protocol

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func pipeCodecs(t *testing.T) (*Codec, *Codec) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewCodec(a), NewCodec(b)
	t.Cleanup(func() {
		ca.Close()
		cb.Close()
	})
	return ca, cb
}

func TestSendRecvRoundTrip(t *testing.T) {
	ca, cb := pipeCodecs(t)
	want := &Message{
		Type: TypeRequest, ID: 7, Op: OpInsert, Doc: 3, Pos: 12,
		Text: "hello\nworld — ünïcode", N: 2,
		Clip: &Clip{Text: "x", SrcDoc: 9, SrcChars: []uint64{1, 2, 3}},
	}
	done := make(chan *Message, 1)
	go func() {
		m, err := cb.Recv()
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- m
	}()
	if err := ca.Send(want); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got == nil {
		t.Fatal("recv failed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestNewlineInTextSurvives(t *testing.T) {
	// Newlines in payloads must survive framing: a frame is
	// length-prefixed, not a line.
	ca, cb := pipeCodecs(t)
	go ca.Send(&Message{Type: TypePush, Event: &Event{Text: "line1\nline2\n"}})
	m, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Event.Text != "line1\nline2\n" {
		t.Fatalf("text = %q", m.Event.Text)
	}
}

func TestRecvGarbageFails(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	cb := NewCodec(b)
	defer cb.Close()
	go func() {
		a.Write([]byte("this is not json\n"))
	}()
	if _, err := cb.Recv(); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestRecvEOF(t *testing.T) {
	a, b := net.Pipe()
	cb := NewCodec(b)
	a.Close()
	if _, err := cb.Recv(); err != io.EOF && err != io.ErrUnexpectedEOF && err != io.ErrClosedPipe {
		// net.Pipe returns io.ErrClosedPipe on the peer side.
		if err == nil {
			t.Fatal("recv on closed pipe succeeded")
		}
	}
	cb.Close()
}

func TestConcurrentSends(t *testing.T) {
	ca, cb := pipeCodecs(t)
	const n = 50
	recvDone := make(chan int, 1)
	go func() {
		count := 0
		for count < n {
			if _, err := cb.Recv(); err != nil {
				break
			}
			count++
		}
		recvDone <- count
	}()
	sendDone := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			for i := 0; i < n/2; i++ {
				if err := ca.Send(&Message{Type: TypePush, Op: "x", ID: int64(g*1000 + i)}); err != nil {
					sendDone <- err
					return
				}
			}
			sendDone <- nil
		}(g)
	}
	for i := 0; i < 2; i++ {
		if err := <-sendDone; err != nil {
			t.Fatal(err)
		}
	}
	if got := <-recvDone; got != n {
		t.Fatalf("received %d of %d messages", got, n)
	}
}

// TestRecvBufferBounded pins the receive buffer's bound: a frame the
// buffer cannot hold grows it by doubling as its bytes arrive, a frame
// that fills at least a quarter of it keeps it, and the first frame that
// fills less gives it up for one of the least capacity, which takes the
// bytes of the frames read ahead with it; so a full-text resync does not
// leave its megabyte pinned to the connection.
func TestRecvBufferBounded(t *testing.T) {
	resync := func(n int) *Message {
		return &Message{Type: TypeResponse, ID: 1, OK: true, Full: true, Text: strings.Repeat("x", n)}
	}
	var stream bytes.Buffer
	frames := []*Message{resync(1 << 20), resync(1 << 19), hotFrames[0].m, hotFrames[1].m, hotFrames[2].m}
	sizes := make([]int, len(frames))
	for i, m := range frames {
		sizes[i], _ = stream.Write(EncodeBinaryFrame(m))
	}
	total := stream.Len()
	wantCap := []struct {
		ok   func(c int) bool
		want string
	}{
		{func(c int) bool { return c >= sizes[0] && c <= 2*total }, "grown to the frame, at most twice what arrived"},
		{func(c int) bool { return c >= sizes[0] }, "kept: the frame fills a quarter"},
		{func(c int) bool { return c == minRecvBuf }, "given up for the least capacity"},
		{func(c int) bool { return c == minRecvBuf }, "kept at the least capacity"},
		{func(c int) bool { return c == minRecvBuf }, "kept at the least capacity"},
	}
	codec := NewCodec(rwc{Reader: &stream})
	var m Message
	for i, want := range frames {
		if err := codec.RecvInto(&m); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&m, want) {
			t.Fatalf("frame %d decoded to %s, want %s", i, canon(t, &m), canon(t, want))
		}
		if c := cap(codec.rbuf); !wantCap[i].ok(c) {
			t.Errorf("after frame %d (%d bytes), the receive buffer holds %d bytes, want %s",
				i, sizes[i], c, wantCap[i].want)
		}
	}
}

// leastAlloc reports the least heap bytes that three runs of a measured
// body allocate, each run over what a fresh call of prepare returns (a new
// stream and codec). A single reading now and then includes what the
// runtime allocates for itself meanwhile, a thread it starts say; the
// least of three is the body's own.
func leastAlloc(prepare func() (body func())) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		body := prepare()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestRecvShrinkAfterReadAhead pins that giving a grown buffer up costs
// time linear in the stream. One large frame arrives with 10,000 small
// ones read ahead behind it: the grown buffer is kept until the unread
// bytes fit minRecvBuf, so the small frames together allocate at most the
// one fresh minRecvBuf buffer, not a copy of what is left per frame.
func TestRecvShrinkAfterReadAhead(t *testing.T) {
	const small = 10000
	var stream bytes.Buffer
	stream.Write(EncodeBinaryFrame(&Message{Type: TypeResponse, ID: 1, OK: true, Full: true, Text: strings.Repeat("x", 1<<20)}))
	tiny := EncodeBinaryFrame(&Message{Type: TypeResponse, ID: 2, OK: true})
	for i := 0; i < small; i++ {
		stream.Write(tiny)
	}
	var codec *Codec
	var m Message
	grew := leastAlloc(func() func() {
		codec = NewCodec(rwc{Reader: bytes.NewReader(stream.Bytes())})
		if err := codec.RecvInto(&m); err != nil {
			t.Fatal(err)
		}
		return func() {
			for i := 0; i < small; i++ {
				if err := codec.RecvInto(&m); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if grew > 2*minRecvBuf {
		t.Errorf("%d frames of %d bytes read ahead behind a 1 MiB frame allocated %d bytes, want at most %d",
			small, len(tiny), grew, 2*minRecvBuf)
	}
	if got := cap(codec.rbuf); got != minRecvBuf {
		t.Errorf("the receive buffer holds %d bytes after the read-ahead drained, want %d", got, minRecvBuf)
	}
}

// TestSendScratchShrinks pins the send side's quarter rule: a codec that
// sent one 1 MiB frame and then 100 acks holds at most minRecvBuf of send
// buffer, not the large frame's, and every frame went out whole.
func TestSendScratchShrinks(t *testing.T) {
	var wire bytes.Buffer
	codec := NewCodec(rwc{Writer: &wire})
	large := &Message{Type: TypeResponse, ID: 1, OK: true, Full: true, Text: strings.Repeat("x", 1<<20)}
	ack := &Message{Type: TypeResponse, ID: 2, OK: true}
	want := EncodeBinaryFrame(large)
	if err := codec.Send(large); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := codec.Send(ack); err != nil {
			t.Fatal(err)
		}
		want = append(want, EncodeBinaryFrame(ack)...)
	}
	if got := cap(codec.scratch); got > minRecvBuf {
		t.Errorf("after a 1 MiB frame and 100 acks the send buffer holds %d bytes, want at most %d", got, minRecvBuf)
	}
	if !bytes.Equal(wire.Bytes(), want) {
		t.Error("the frames sent differ from their encodings")
	}
}

// TestRecvAllocatesAsBytesArrive pins that a length prefix alone claims no
// memory. A header announcing MaxBinaryFrame bytes, then the end of the
// stream, fails with io.ErrUnexpectedEOF without growing the receive
// buffer for the 64 MiB it announced, and a header announcing one byte
// more is refused as soon as it is read.
func TestRecvAllocatesAsBytesArrive(t *testing.T) {
	for _, c := range []struct {
		name   string
		stream []byte
		err    string
	}{
		{"MaxBinaryFrame, then EOF", []byte{binMagic, 0x80, 0x80, 0x80, 0x20}, io.ErrUnexpectedEOF.Error()},
		{"MaxBinaryFrame+1", binary.AppendUvarint([]byte{binMagic}, MaxBinaryFrame+1), "exceeds limit"},
	} {
		var codec *Codec
		grew := leastAlloc(func() func() {
			codec = NewCodec(rwc{Reader: bytes.NewReader(c.stream)})
			return func() {
				if err := codec.RecvInto(new(Message)); err == nil || !strings.Contains(err.Error(), c.err) {
					t.Errorf("%s: %v, want %q", c.name, err, c.err)
				}
			}
		})
		if grew >= 64<<10 {
			t.Errorf("%s: the receive allocated %d bytes, want under 64 KiB", c.name, grew)
		}
		if got := cap(codec.rbuf); got > minRecvBuf {
			t.Errorf("%s: the receive buffer grew to %d bytes, want at most %d", c.name, got, minRecvBuf)
		}
	}
}

// countingReader counts the Reads made of it.
type countingReader struct {
	io.Reader
	reads int
}

func (r *countingReader) Read(p []byte) (int, error) {
	r.reads++
	return r.Reader.Read(p)
}

// TestRecvLargeFrameReads pins that a frame larger than the receive buffer
// takes few Reads once its header is in: a 30 KB frame delivered in one
// chunk, a late joiner's open, takes at most 2, not one per doubling.
func TestRecvLargeFrameReads(t *testing.T) {
	const maxReads = 2
	want := &Message{Type: TypeResponse, ID: 1, OK: true, Doc: 1, Text: strings.Repeat("x", 30_000), Seq: 7, Snap: 3}
	r := &countingReader{Reader: bytes.NewReader(EncodeBinaryFrame(want))}
	codec := NewCodec(rwc{Reader: r})
	var m Message
	if err := codec.RecvInto(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&m, want) {
		t.Fatalf("frame decoded to %s, want %s", canon(t, &m), canon(t, want))
	}
	if r.reads > maxReads {
		t.Errorf("a 30 KB frame in one chunk took %d Reads, want at most %d", r.reads, maxReads)
	}
}

// TestByteCountersAgree wires a sending and a receiving codec to byte
// counters: for frames whose length prefixes take one, two and three
// bytes, the receiver counts in exactly the bytes the sender counts out.
func TestByteCountersAgree(t *testing.T) {
	var (
		wire    bytes.Buffer
		in, out atomic.Int64
	)
	send, recv := NewCodec(rwc{Writer: &wire}), NewCodec(rwc{Reader: &wire})
	send.SetByteCounters(nil, &out)
	recv.SetByteCounters(&in, nil)
	for _, c := range []struct{ prefix, text int }{{1, 1}, {2, 200}, {3, 20_000}} {
		m := &Message{Type: TypePush, Event: &Event{Text: strings.Repeat("x", c.text)}}
		if _, k := binary.Uvarint(EncodeBinaryFrame(m)[1:]); k != c.prefix {
			t.Fatalf("a %d-rune text frames with a %d-byte length prefix, want %d", c.text, k, c.prefix)
		}
		if err := send.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := recv.Recv(); err != nil {
			t.Fatal(err)
		}
		if in.Load() != out.Load() {
			t.Errorf("after a frame with a %d-byte length prefix: %d bytes counted in, %d out", c.prefix, in.Load(), out.Load())
		}
	}
}
