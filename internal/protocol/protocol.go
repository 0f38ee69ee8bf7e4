// Package protocol defines the TeNDaX client/server wire format over TCP:
// newline-delimited JSON messages until a hello negotiates v3, binary
// frames (binary.go) after. Editors on any operating system speak it — the
// paper's demo ran the same editor on Windows, Linux and Mac OS X against
// one database server.
//
// Three message types flow on a connection: requests (client → server),
// responses (server → client, correlated by ID), and pushes (server →
// client, uncorrelated: committed operations and presence changes on
// subscribed documents).
package protocol

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
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

// Protocol versions. Version 1 is the paper's position-addressed,
// one-request-per-edit API in JSON lines; version 3 adds ID-anchored edit
// batches, anchor queries and delta resync, and packs every frame in the
// binary encoding of binary.go (varint scalars, presence bitmaps,
// run-length coded ID lists). A connection speaks v1 until a hello request
// negotiates v3, so v1 clients keep working against the server unchanged,
// and a binary frame is only ever sent to a peer that asked for v3. (The
// number 2 named a JSON-framed dialect of v3's vocabulary; it is no longer
// negotiated.)
const (
	Version1   = 1
	Version3   = 3
	VersionMax = Version3
)

// Operations.
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
// subscriber read them, or LaggedBatch, a multi-op batch a v1 connection
// cannot fold.
const EvLagged = "lagged"

// Causes of an EvLagged push (Event.Name).
const (
	LaggedRingMiss = "ring_miss"
	LaggedBatch    = "batch"
)

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
// the server cannot serve because it runs without the subsystem behind it
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
//     fallback (v1 semantics, resolved against the batch-start state).
//   - delete: Chars lists the instances to tombstone (stale-position
//     proof: the server tombstones exactly what the client saw, wherever
//     concurrent edits moved it); Pos/N is the v1 fallback.
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
	Pos   int      `json:"pos,omitempty"`   // v1 position fallback
	Text  string   `json:"text,omitempty"`  // insert/note payload
	N     int      `json:"n,omitempty"`     // delete/layout length (pos fallback)
	Chars []uint64 `json:"chars,omitempty"` // delete/layout explicit instances
	Span  string   `json:"span,omitempty"`  // layout span kind
	Value string   `json:"value,omitempty"` // layout span value
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

// Codec frames messages over a stream. Outbound frames are JSON lines
// until EnableBinary flips the codec to v3 binary frames; inbound frames
// are auto-detected per frame by their first byte ('{' opens a JSON line,
// 0xB3 a binary frame), which makes the v3 upgrade race-free — frames
// serialized on either side of the hello exchange decode correctly
// regardless of ordering.
type Codec struct {
	r       *bufio.Reader
	w       *bufio.Writer
	wm      sync.Mutex
	c       io.Closer
	bin     atomic.Bool
	scratch []byte // binary encode buffer, owned by wm
	dec     bdec   // binary decode cursor, owned by Recv's single reader

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

// EnableBinary switches outbound framing to v3 binary. Call only after a
// hello exchange lands on Version3: the switch is what keeps the
// "never send binary to a non-v3 peer" invariant.
func (c *Codec) EnableBinary() { c.bin.Store(true) }

// BinaryEnabled reports whether outbound frames are v3 binary.
func (c *Codec) BinaryEnabled() bool { return c.bin.Load() }

// SetByteCounters wires the codec's framed-bytes accounting to the given
// counters (either may be nil). Counts cover full frames as written to and
// read from the buffered stream.
func (c *Codec) SetByteCounters(in, out *atomic.Int64) {
	c.nIn, c.nOut = in, out
}

// Send writes one message (safe for concurrent use).
func (c *Codec) Send(m *Message) error {
	if c.bin.Load() {
		return c.sendBinary(m)
	}
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("protocol: marshal: %w", err)
	}
	c.wm.Lock()
	defer c.wm.Unlock()
	if _, err := c.w.Write(data); err != nil {
		return err
	}
	if err := c.w.WriteByte('\n'); err != nil {
		return err
	}
	if c.nOut != nil {
		c.nOut.Add(int64(len(data)) + 1)
	}
	return c.w.Flush()
}

// sendBinary frames m as magic + uvarint length + packed payload, reusing
// the codec's scratch buffer so a steady edit stream encodes with zero
// per-frame allocations.
func (c *Codec) sendBinary(m *Message) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	c.scratch = appendBinaryMessage(c.scratch[:0], m)
	var hdr [binary.MaxVarintLen64 + 1]byte
	hdr[0] = binMagic
	n := 1 + binary.PutUvarint(hdr[1:], uint64(len(c.scratch)))
	if _, err := c.w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := c.w.Write(c.scratch); err != nil {
		return err
	}
	if c.nOut != nil {
		c.nOut.Add(int64(n + len(c.scratch)))
	}
	return c.w.Flush()
}

// SendRaw writes one pre-encoded frame verbatim (safe for concurrent use).
// The frame must be exactly what EncodeFrame produced for this peer's
// protocol version — this is the fan-out path that lets the server encode
// a pushed event once and share the bytes across every subscriber.
func (c *Codec) SendRaw(frame []byte) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	if _, err := c.w.Write(frame); err != nil {
		return err
	}
	if c.nOut != nil {
		c.nOut.Add(int64(len(frame)))
	}
	return c.w.Flush()
}

// EncodeFrame renders m as the exact frame bytes Send would write for a
// peer of the given negotiated version: a newline-terminated JSON line for
// v1, a binary frame for v3.
func EncodeFrame(m *Message, ver int) ([]byte, error) {
	if ver >= Version3 {
		return EncodeBinaryFrame(m), nil
	}
	data, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("protocol: marshal: %w", err)
	}
	return append(data, '\n'), nil
}

// Recv reads the next message, blocking. The frame kind is detected from
// its first byte, so JSON and binary frames can interleave on one stream.
// One reader at a time: unlike Send, Recv is not safe for concurrent use.
func (c *Codec) Recv() (*Message, error) {
	first, err := c.r.Peek(1)
	if err != nil {
		return nil, err
	}
	if first[0] == binMagic {
		return c.recvBinary()
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	if c.nIn != nil {
		c.nIn.Add(int64(len(line)))
	}
	var m Message
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, fmt.Errorf("protocol: unmarshal %q: %w", firstN(string(line), 80), err)
	}
	return &m, nil
}

func (c *Codec) recvBinary() (*Message, error) {
	if _, err := c.r.Discard(1); err != nil {
		return nil, err
	}
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		return nil, err
	}
	if n > MaxBinaryFrame {
		return nil, fmt.Errorf("protocol: binary frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return nil, err
	}
	if c.nIn != nil {
		c.nIn.Add(int64(n) + 2) // magic + ~1-byte length prefix
	}
	c.dec = bdec{b: payload}
	m, err := c.dec.message()
	c.dec.b = nil // do not pin the payload until the next frame
	return m, err
}

// Close tears the connection down.
func (c *Codec) Close() error { return c.c.Close() }

func firstN(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
