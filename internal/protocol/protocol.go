// Package protocol defines the TeNDaX client/server wire format over TCP:
// protocol v3, binary frames (binary.go) only. Every connection opens with
// a hello asking for v3; a server answers anything else first with an
// ErrUnsupported error. Editors on any operating system speak it — the
// paper's demo ran the same editor on Windows, Linux and Mac OS X against
// one database server.
//
// Three message types flow on a connection: requests (client → server),
// responses (server → client, correlated by ID), and pushes (server →
// client, uncorrelated: committed operations and presence changes on
// subscribed documents).
//
// The struct tags spell each message in JSON. No connection carries JSON;
// it is the canonical form the tests and the fuzzers compare frames in.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Message type discriminators.
const (
	TypeRequest  = "req"
	TypeResponse = "resp"
	TypePush     = "push"
)

// Protocol versions. Version 3 is the only one spoken: ID-anchored edit
// batches, anchor queries and base pushes, every frame packed in the
// binary encoding of binary.go (varint scalars, presence bitmaps,
// run-length coded ID lists). The paper's position-addressed edits travel
// as one-op edit batches. (Versions 1 and 2 named JSON-framed dialects;
// a hello asking for either is refused.)
const (
	Version3   = 3
	VersionMax = Version3
)

// Operations. OpInsert, OpAppend, OpDelete, OpPaste, OpLayout and OpNote
// named version 1's one-request-per-edit ops, and OpResync, OpOpenDoc,
// OpText and OpUnsubscribe the reads and the unsubscribe a replica has no
// use for since a subscription pushes its own base (EvResync); no server
// serves them, and they keep their names for their symbol-table slots.
const (
	OpLogin       = "login"
	OpHello       = "hello" // version negotiation
	OpEdit        = "edit"  // ID-anchored edit batch, one transaction
	OpResync      = "resync"
	OpAnchors     = "anchors" // visible char IDs of a position range
	OpCreateDoc   = "create"
	OpOpenDoc     = "open"
	OpListDocs    = "list"
	OpInsert      = "insert"
	OpAppend      = "append"
	OpDelete      = "delete"
	OpCopy        = "copy"
	OpPaste       = "paste"
	OpUndo        = "undo"
	OpRedo        = "redo"
	OpLayout      = "layout"
	OpNote        = "note"
	OpVersion     = "version"
	OpVersions    = "versions"
	OpVersionText = "versiontext"
	OpText        = "text"
	OpRead        = "read"
	OpSubscribe   = "subscribe"
	OpUnsubscribe = "unsubscribe"
	OpCursor      = "cursor"
	OpPresence    = "presence"
	OpHistory     = "history"
	OpQuery       = "query" // incremental search & provenance
)

// Undo/redo scopes.
const (
	ScopeLocal  = "local"
	ScopeGlobal = "global"
)

// EvResync is the kind of a base push, the first push of every
// subscription and the server's answer to a subscriber that fell further
// behind than the op ring reaches. Text is the document's text as the
// subscriber may read it, each denied character masked (Packed instead,
// deflated, once that text is 4 KiB or more), and Seq the
// sequence number of the newest event it holds: the pushes that follow
// continue from Seq+1. Name is LaggedRingMiss on a base that stands in for
// events the ring evicted before the subscriber read them, N of them, and
// empty on a subscription's first base.
const EvResync = "resync"

// LaggedRingMiss is the cause (Event.Name) of an EvResync push that
// answers a ring miss.
const LaggedRingMiss = "ring_miss"

// EvLagged is the kind of the push that ends a subscription the server can
// give no base, because the user may no longer read the document. Name is
// the error; no push for the document follows.
const EvLagged = "lagged"

// EvPresence is a synthetic push carrying a document's full presence
// roster (one Batch item per present user: Text the user name, Pos the
// cursor). The server sends it after the base that heals a shed gap,
// because the join/leave/cursor updates inside the gap are gone;
// the receiver replaces its presence state wholesale and does not advance
// its event sequence number.
const EvPresence = "presence"

// ErrThrottled is the machine-readable Code of a response rejected by the
// server's rate limiter. The response's RetryMS carries the earliest
// backoff, in milliseconds, after which retrying can succeed.
const ErrThrottled = "throttled"

// ErrUnsupported is the machine-readable Code of a response to a request
// the server cannot serve: one sent before a v3 hello, a hello asking for
// an older version, or a request whose subsystem the server runs without
// (indexers disabled).
const ErrUnsupported = "unsupported"

// Edit-op kinds carried inside an OpEdit batch.
const (
	EditInsert = "insert"
	EditDelete = "delete"
	EditLayout = "layout"
	EditNote   = "note"
)

// EditOp is one operation of an edit batch. Edits address the document
// by character-instance ID — the stable identity TeNDaX assigns every
// typed character — rather than by a position that concurrent editors
// invalidate in flight:
//
//   - insert: exactly one of After (chain the text after this instance;
//     0 = front of document), Prev (chain after the last text this
//     connection inserted — the pipelined-typing anchor, resolvable
//     before the previous batch is even acknowledged), or the Pos
//     fallback (the paper's positional edit, resolved against the
//     batch-start state; -1 appends). A paste also names its source:
//     SrcDoc and SrcChars, the clipboard's provenance.
//   - delete: Chars lists the instances to tombstone (stale-position
//     proof: the server tombstones exactly what the client saw, wherever
//     concurrent edits moved it); Pos/N is the positional fallback.
//   - layout: Chars lists the instances to span (first/last become the
//     anchors); Pos/N fallback.
//   - note: After is the instance to anchor at; Pos fallback.
//
// The whole batch applies as ONE database transaction: either every op
// commits or none do.
type EditOp struct {
	Kind  string   `json:"kind"`
	After *uint64  `json:"after,omitempty"` // anchor instance (0 = front)
	Prev  bool     `json:"prev,omitempty"`  // after this connection's last insert
	Pos   int      `json:"pos,omitempty"`   // position fallback
	Text  string   `json:"text,omitempty"`  // insert/note payload
	N     int      `json:"n,omitempty"`     // delete/layout length (pos fallback)
	Chars []uint64 `json:"chars,omitempty"` // delete/layout explicit instances
	Span  string   `json:"span,omitempty"`  // layout span kind
	Value string   `json:"value,omitempty"` // layout span value
	// A paste's provenance: the document and instances its text was
	// copied from (Clip.SrcDoc and Clip.SrcChars).
	SrcDoc   uint64   `json:"srcDoc,omitempty"`
	SrcChars []uint64 `json:"srcChars,omitempty"`
}

// EditResult reports one applied op of an edit batch: the logged operation
// ID, the instance IDs the op created (inserts — this is how a client
// learns the identities of its own text), and the visible position the op
// resolved to at commit time.
type EditResult struct {
	OpID uint64   `json:"opId"`
	IDs  []uint64 `json:"ids,omitempty"`
	Span uint64   `json:"span,omitempty"` // layout/note: the created span
	Pos  int      `json:"pos"`
}

// BatchItem is one op of a committed batch (or one run an undo or redo
// flipped) inside a pushed "batch", "undo" or "redo" event, with its
// position resolved against the document state after the items before it
// — a replica applies the items in order.
type BatchItem struct {
	Kind string   `json:"kind"`
	Pos  int      `json:"pos"`
	Text string   `json:"text,omitempty"`
	N    int      `json:"n,omitempty"`
	IDs  []uint64 `json:"ids,omitempty"`
}

// Clip is a clipboard on the wire.
type Clip struct {
	Text     string   `json:"text"`
	SrcDoc   uint64   `json:"srcDoc,omitempty"`
	SrcChars []uint64 `json:"srcChars,omitempty"`
}

// DocInfo is document metadata on the wire.
type DocInfo struct {
	ID         uint64   `json:"id"`
	Name       string   `json:"name"`
	Creator    string   `json:"creator"`
	Size       int      `json:"size"`
	State      string   `json:"state"`
	Authors    []string `json:"authors,omitempty"`
	ModifiedNS int64    `json:"modifiedNs"`
}

// Version is a document version on the wire.
type Version struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Author string `json:"author"`
	AtNS   int64  `json:"atNs"`
}

// Presence is one present user on the wire.
type Presence struct {
	User   string `json:"user"`
	Cursor int    `json:"cursor"`
}

// Event is a pushed awareness event. Kind "batch" carries an edit batch:
// Batch holds the committed ops in order, and the event counts as ONE
// sequence number — the batch committed as one transaction.
type Event struct {
	Seq   uint64      `json:"seq"`
	Doc   uint64      `json:"doc"`
	Kind  string      `json:"kind"`
	User  string      `json:"user"`
	Pos   int         `json:"pos"`
	Text  string      `json:"text,omitempty"`
	N     int         `json:"n,omitempty"`
	Name  string      `json:"name,omitempty"`
	Batch []BatchItem `json:"batch,omitempty"`
	AtNS  int64       `json:"atNs"`
	// Packed is a base's text deflated (RFC 1951), sent in place of Text
	// when the text is at least 4 KiB. Only a client inflates it: a server
	// never expands a Packed it receives.
	Packed []byte `json:"packed,omitempty"`
}

// QueryReq is the payload of an OpQuery request. Kind selects
// the query family: QuerySearch runs the ranked search (Terms, InHeadings,
// Rank, Limit), QuerySources explains where the visible range [Pos, Pos+N)
// of Doc came from.
type QueryReq struct {
	Kind       string   `json:"kind"`
	Terms      []string `json:"terms,omitempty"`
	InHeadings bool     `json:"inHeadings,omitempty"`
	Rank       string   `json:"rank,omitempty"`
	Limit      int      `json:"limit,omitempty"`
	Doc        uint64   `json:"doc,omitempty"`
	Pos        int      `json:"pos,omitempty"`
	N          int      `json:"n,omitempty"`
}

// QueryReq kinds.
const (
	QuerySearch  = "search"
	QuerySources = "sources"
)

// SearchHit is one ranked search result on the wire. The snippet is
// re-derived per requesting user through their character-level read mask
// before it leaves the server (fail-closed), so two tenants may see the
// same hit with different snippets.
type SearchHit struct {
	Doc     DocInfo `json:"doc"`
	Score   float64 `json:"score,omitempty"`
	Snippet string  `json:"snippet,omitempty"`
}

// SourceRef is one provenance run on the wire: the characters [From, To)
// of the queried document were pasted from SrcDoc. A zero SrcDoc marks
// locally typed text.
type SourceRef struct {
	SrcDoc  uint64 `json:"srcDoc,omitempty"`
	SrcName string `json:"srcName,omitempty"`
	Chars   int    `json:"chars"`
	From    int    `json:"from"`
	To      int    `json:"to"`
}

// HistoryOp is one editing-history entry on the wire.
type HistoryOp struct {
	ID     uint64 `json:"id"`
	User   string `json:"user"`
	Kind   string `json:"kind"`
	Chars  int    `json:"chars"`
	Undone bool   `json:"undone"`
}

// Message is the single wire envelope for requests, responses and pushes.
type Message struct {
	Type string `json:"type"`
	ID   int64  `json:"id,omitempty"` // request/response correlation
	Op   string `json:"op,omitempty"`

	// Request fields.
	User     string   `json:"user,omitempty"`
	Password string   `json:"password,omitempty"`
	Doc      uint64   `json:"doc,omitempty"`
	Name     string   `json:"name,omitempty"`
	Text     string   `json:"text,omitempty"`
	Pos      int      `json:"pos,omitempty"`
	N        int      `json:"n,omitempty"`
	Kind     string   `json:"kind,omitempty"`
	Value    string   `json:"value,omitempty"`
	Scope    string   `json:"scope,omitempty"`
	Clip     *Clip    `json:"clip,omitempty"`
	Version  uint64   `json:"version,omitempty"`
	Ver      int      `json:"ver,omitempty"`   // hello: highest version the sender speaks
	Ops      []EditOp `json:"ops,omitempty"`   // edit: the batch
	Since    uint64   `json:"since,omitempty"` // the retired resync's last applied sequence number
	// Query is the OpQuery request payload.
	Query *QueryReq `json:"query,omitempty"`

	// Response fields.
	OK  bool   `json:"ok,omitempty"`
	Err string `json:"err,omitempty"`
	// Code is the machine-readable class of Err (e.g. ErrThrottled);
	// empty for errors without one.
	Code string `json:"code,omitempty"`
	// RetryMS is the backoff hint accompanying a throttled Code, in
	// milliseconds.
	RetryMS int64  `json:"retryMs,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	OpID    uint64 `json:"opId,omitempty"`
	// Snap, Events, Full and Shards are filled by no server: Snap was a
	// full read's MVCC snapshot version, Events and Full a delta resync's
	// answer, Shards the hello's count of engine shards. They keep their
	// slots in the field tables, which are append-only.
	Snap     uint64       `json:"snap,omitempty"`
	Docs     []DocInfo    `json:"docs,omitempty"`
	Versions []Version    `json:"versions,omitempty"`
	Present  []Presence   `json:"present,omitempty"`
	History  []HistoryOp  `json:"history,omitempty"`
	Results  []EditResult `json:"results,omitempty"` // edit: one per op, in order
	IDs      []uint64     `json:"ids,omitempty"`     // anchors: instance IDs of the range
	Events   []Event      `json:"events,omitempty"`
	Full     bool         `json:"full,omitempty"`
	Shards   int          `json:"shards,omitempty"`
	// Hits / Sources answer an OpQuery (QuerySearch / QuerySources).
	// Both are ACL-filtered per requesting user before encoding.
	Hits    []SearchHit `json:"hits,omitempty"`
	Sources []SourceRef `json:"sources,omitempty"`

	// Push payload.
	Event *Event `json:"event,omitempty"`
}

// Codec frames messages over a stream as v3 binary frames. A frame that
// does not open with the v3 magic byte is refused. It holds one buffer in
// each direction: Send renders a frame into scratch and writes it to the
// conn in one Write, and RecvInto reads the conn into rbuf and decodes
// each frame where it landed.
type Codec struct {
	rw      io.ReadWriteCloser
	wm      sync.Mutex
	scratch []byte // send buffer, owned by wm
	dec     bdec   // decode cursor, owned by Recv's single reader
	rbuf    []byte // receive buffer, owned by Recv's single reader
	roff    int    // rbuf[roff:] holds the bytes no frame has taken yet

	// Optional wire accounting (tendaxd metrics): total payload bytes
	// framed out and received in. Nil unless SetByteCounters was called.
	nIn, nOut *atomic.Int64
}

// NewCodec wraps a connection.
func NewCodec(rw io.ReadWriteCloser) *Codec {
	return &Codec{rw: rw}
}

// SetByteCounters wires the codec's framed-bytes accounting to the given
// counters (either may be nil). Counts cover whole frames, header
// included, as written to and read from the connection.
func (c *Codec) SetByteCounters(in, out *atomic.Int64) {
	c.nIn, c.nOut = in, out
}

// Send writes one message (safe for concurrent use). It frames m as magic
// + uvarint length + packed payload in the codec's scratch buffer and
// writes the frame in one piece, so a steady edit stream encodes with zero
// per-frame allocations.
func (c *Codec) Send(m *Message) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	var frame []byte
	frame, c.scratch = renderFrame(c.scratch, m)
	return c.writeLocked(frame)
}

// SendRaw writes one pre-encoded frame verbatim (safe for concurrent use).
// The frame must be one a FrameEncoder produced — this is the fan-out path
// that lets the server encode a pushed event once and share the bytes
// across every subscriber.
func (c *Codec) SendRaw(frame []byte) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	return c.writeLocked(frame)
}

// writeLocked writes one frame to the connection in one Write; the caller
// holds wm.
func (c *Codec) writeLocked(frame []byte) error {
	if _, err := c.rw.Write(frame); err != nil {
		return err
	}
	if c.nOut != nil {
		c.nOut.Add(int64(len(frame)))
	}
	return nil
}

// EncodeFrame renders m as the exact frame bytes Send writes. ver must be
// Version3, the only version with a frame encoding.
func EncodeFrame(m *Message, ver int) ([]byte, error) {
	if ver != Version3 {
		return nil, fmt.Errorf("protocol: no frame encoding for version %d, only for v3", ver)
	}
	return EncodeBinaryFrame(m), nil
}

// A FrameEncoder renders frames the way Send does, for SendRaw's
// encode-once fan-out, reusing one buffer for the encoding: a frame costs
// one allocation, the returned frame at its exact size. The zero value is
// ready; one goroutine at a time.
type FrameEncoder struct{ buf []byte }

// Encode renders m as one frame. The returned frame is the caller's: the
// encoder keeps no reference to it.
func (e *FrameEncoder) Encode(m *Message) []byte {
	var frame []byte
	frame, e.buf = renderFrame(e.buf, m)
	return append([]byte(nil), frame...)
}

// Recv reads the next message, blocking. One reader at a time: unlike
// Send, Recv is not safe for concurrent use. The message is the caller's
// to keep.
func (c *Codec) Recv() (*Message, error) {
	m := new(Message)
	if err := c.RecvInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// minRecvBuf is the receive buffer's least capacity: every frame of
// ordinary typing traffic fits, so it is never given up between them.
const minRecvBuf = 4 << 10

// RecvInto is Recv decoding into m, which the next RecvInto overwrites. A
// read loop that owns one Message decodes every frame into it: m, its
// Event and its lists of ops and results are reused from frame to frame
// (see bdec.messageInto), so a caller that keeps any of them past the next
// RecvInto must take them out of m first. Strings and ID lists are copied
// out of the frame and may be kept. On error m's contents are undefined.
// A frame that does not open with the v3 magic byte (a JSON line from a
// version-1 peer, say) is refused, and the stream is not usable after it.
// The stream ending between frames is io.EOF, inside one
// io.ErrUnexpectedEOF.
//
// The frame is decoded where it landed in the codec's receive buffer; the
// decoder copies out every string and ID list, so its bytes are free as
// soon as the frame is decoded. The buffer grows only as bytes arrive (see
// fill), never on a length prefix's word. A buffer that grew for a large
// frame (a subscriber's base) is given up at the first frame that fills
// less than a quarter of it, the rule the WAL applies to its spare batch
// buffer, so one large frame does not stay pinned to the connection. The
// bytes read ahead move into the fresh buffer, so it waits until they fit
// it: moving a longer read-ahead after every small frame would copy it
// once per frame.
func (c *Codec) RecvInto(m *Message) error {
	var n uint64
	k := 0 // the length prefix's bytes; negative if it overflows
	for {
		if b := c.rbuf[c.roff:]; len(b) > 0 {
			if b[0] != binMagic {
				return fmt.Errorf("protocol: frame opens with %#x, not the v3 magic %#x: only protocol v3 is spoken", b[0], binMagic)
			}
			if n, k = binary.Uvarint(b[1:]); k != 0 {
				break
			}
		}
		if err := c.fill(0); err != nil {
			return err
		}
	}
	if k < 0 {
		return errors.New("protocol: binary frame length overflows 64 bits")
	}
	if n > MaxBinaryFrame {
		return fmt.Errorf("protocol: binary frame of %d bytes exceeds limit", n)
	}
	size := 1 + k + int(n)
	for len(c.rbuf)-c.roff < size {
		if err := c.fill(size); err != nil {
			return err
		}
	}
	payload := c.rbuf[c.roff+1+k : c.roff+size]
	c.roff += size
	if c.nIn != nil {
		c.nIn.Add(int64(size))
	}
	c.dec.b, c.dec.pos = payload, 0
	err := c.dec.messageInto(m)
	c.dec.b = nil // do not pin the payload until the next frame
	if unread := c.rbuf[c.roff:]; cap(c.rbuf) > minRecvBuf && 4*n < uint64(cap(c.rbuf)) && len(unread) <= minRecvBuf {
		c.rbuf, c.roff = append(make([]byte, 0, minRecvBuf), unread...), 0
	}
	return err
}

// recvGrowth bounds how far the receive buffer grows ahead of the bytes
// that have arrived: at most this many times them. A 30 KB frame whose
// first minRecvBuf bytes are in takes one more Read, and a length prefix
// alone claims no more than minRecvBuf.
const recvGrowth = 8

// fill reads what the connection has next into rbuf, behind the bytes no
// frame has taken yet, which it first moves to the front. want is the
// length of the frame being read once its header is parsed, 0 before. The
// buffer grows toward want, but never past recvGrowth times the bytes that
// have arrived; without a want it doubles when those bytes fill it. So it
// never holds more than recvGrowth times what has arrived, or minRecvBuf.
// The stream ending with some of a frame in the buffer is
// io.ErrUnexpectedEOF.
func (c *Codec) fill(want int) error {
	if c.roff > 0 {
		c.rbuf, c.roff = c.rbuf[:copy(c.rbuf, c.rbuf[c.roff:])], 0
	}
	size := cap(c.rbuf)
	switch n := len(c.rbuf); {
	case want > 0:
		size = max(size, min(want, recvGrowth*n))
	case n == size:
		size = max(2*n, minRecvBuf)
	}
	if size > cap(c.rbuf) {
		c.rbuf = append(make([]byte, 0, size), c.rbuf...)
	}
	k, err := c.rw.Read(c.rbuf[len(c.rbuf):cap(c.rbuf)])
	c.rbuf = c.rbuf[:len(c.rbuf)+k]
	switch {
	case k > 0:
		return nil // a reader's error comes again from the next Read
	case err == io.EOF && len(c.rbuf) > 0:
		return io.ErrUnexpectedEOF
	}
	return err
}

// Close tears the connection down.
func (c *Codec) Close() error { return c.rw.Close() }
