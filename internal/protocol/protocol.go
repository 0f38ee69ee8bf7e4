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
	"bufio"
	"encoding/binary"
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
// batches, anchor queries and delta resync, every frame packed in the
// binary encoding of binary.go (varint scalars, presence bitmaps,
// run-length coded ID lists). The paper's position-addressed edits travel
// as one-op edit batches. (Versions 1 and 2 named JSON-framed dialects;
// a hello asking for either is refused.)
const (
	Version3   = 3
	VersionMax = Version3
)

// Operations. OpInsert, OpAppend, OpDelete, OpPaste, OpLayout and OpNote
// named version 1's one-request-per-edit ops; no server serves them, and
// they keep their names for their symbol-table slots.
const (
	OpLogin       = "login"
	OpHello       = "hello"   // version negotiation
	OpEdit        = "edit"    // ID-anchored edit batch, one transaction
	OpResync      = "resync"  // delta resync from a sequence number
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

// EvLagged is the kind of the advisory push that tells a subscriber its
// replica has a hole: it must resubscribe (a no-op while the subscription
// is still attached) and resynchronise from the committed state. The
// event's Seq carries the document's sequence number, and its Name the
// cause: LaggedRingMiss, with N the events the op ring evicted before the
// subscriber read them.
const EvLagged = "lagged"

// LaggedRingMiss is the cause (Event.Name) of an EvLagged push.
const LaggedRingMiss = "ring_miss"

// EvPresence is a synthetic push carrying a document's full presence
// roster (one Batch item per present user: Text the user name, Pos the
// cursor). The server sends it after healing a shed gap, because the
// join/leave/cursor updates coalesced into the gap are not in the replay;
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
	Since    uint64   `json:"since,omitempty"` // resync: last applied sequence number
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
	// Snap is the MVCC snapshot version the returned Text was read from:
	// within one server process it increases monotonically with every
	// committed text mutation of the document, so a client can tell which
	// of two reads is fresher. A restarted server starts the counter over
	// (it counts in-memory buffer mutations since load), so versions are
	// only comparable between reads served by the same process.
	Snap     uint64       `json:"snap,omitempty"`
	Docs     []DocInfo    `json:"docs,omitempty"`
	Versions []Version    `json:"versions,omitempty"`
	Present  []Presence   `json:"present,omitempty"`
	History  []HistoryOp  `json:"history,omitempty"`
	Results  []EditResult `json:"results,omitempty"` // edit: one per op, in order
	IDs      []uint64     `json:"ids,omitempty"`     // anchors: instance IDs of the range
	Events   []Event      `json:"events,omitempty"`  // resync: the delta, in sequence order
	// Full marks a resync response that fell back to the complete text
	// because the gap outlived the server's op-ring retention: Text, Seq
	// and Snap carry a full consistent read, Events is empty.
	Full bool `json:"full,omitempty"`
	// Shards is routing metadata on the hello response: how many engine
	// shards this process runs (documents map to shards by ID). Today it
	// is advisory — every shard is served by this one address — but the
	// multi-node phase will use it to pre-place connections.
	Shards int `json:"shards,omitempty"`
	// Hits / Sources answer an OpQuery (QuerySearch / QuerySources).
	// Both are ACL-filtered per requesting user before encoding.
	Hits    []SearchHit `json:"hits,omitempty"`
	Sources []SourceRef `json:"sources,omitempty"`

	// Push payload.
	Event *Event `json:"event,omitempty"`
}

// Codec frames messages over a stream as v3 binary frames. A frame that
// does not open with the v3 magic byte is refused.
type Codec struct {
	r       *bufio.Reader
	w       *bufio.Writer
	wm      sync.Mutex
	c       io.Closer
	scratch []byte // encode buffer, owned by wm
	dec     bdec   // decode cursor, owned by Recv's single reader
	rbuf    []byte // receive buffer, owned by Recv's single reader

	// Optional wire accounting (tendaxd metrics): total payload bytes
	// framed out and received in. Nil unless SetByteCounters was called.
	nIn, nOut *atomic.Int64
}

// NewCodec wraps a connection.
func NewCodec(rw io.ReadWriteCloser) *Codec {
	return &Codec{
		r: bufio.NewReaderSize(rw, 64*1024),
		w: bufio.NewWriterSize(rw, 64*1024),
		c: rw,
	}
}

// SetByteCounters wires the codec's framed-bytes accounting to the given
// counters (either may be nil). Counts cover full frames as written to and
// read from the buffered stream.
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

// writeLocked writes and flushes one frame; the caller holds wm.
func (c *Codec) writeLocked(frame []byte) error {
	if _, err := c.w.Write(frame); err != nil {
		return err
	}
	if c.nOut != nil {
		c.nOut.Add(int64(len(frame)))
	}
	return c.w.Flush()
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
//
// The frame is read into the codec's receive buffer; the decoder copies
// out every string and ID list, so the buffer is free again as soon as the
// frame is decoded. A buffer that grew for a large frame (a full-text
// resync) is given up at the first frame that fills less than a quarter of
// it, the rule the WAL applies to its spare batch buffer, so one large
// frame does not stay pinned to the connection.
func (c *Codec) RecvInto(m *Message) error {
	magic, err := c.r.ReadByte()
	if err != nil {
		return err
	}
	if magic != binMagic {
		return fmt.Errorf("protocol: frame opens with %#x, not the v3 magic %#x: only protocol v3 is spoken", magic, binMagic)
	}
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		return err
	}
	if n > MaxBinaryFrame {
		return fmt.Errorf("protocol: binary frame of %d bytes exceeds limit", n)
	}
	if uint64(cap(c.rbuf)) < n {
		c.rbuf = make([]byte, max(int(n), minRecvBuf))
	}
	payload := c.rbuf[:n]
	if cap(c.rbuf) > minRecvBuf && 4*n < uint64(cap(c.rbuf)) {
		c.rbuf = nil
	}
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return err
	}
	if c.nIn != nil {
		c.nIn.Add(int64(n) + 2) // magic + ~1-byte length prefix
	}
	c.dec.b, c.dec.pos = payload, 0
	err = c.dec.messageInto(m)
	c.dec.b = nil // do not pin the payload until the next frame
	return err
}

// Close tears the connection down.
func (c *Codec) Close() error { return c.c.Close() }
