package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/core"
	"tendax/internal/protocol"
	"tendax/internal/search"
	"tendax/internal/texttree"
	"tendax/internal/util"
)

// The direct-drive replays of the traced run: each module's public API is
// called from here, single-threaded, on a sample of the workload's own
// stream, so a per-layer cost can be read without the rest of the stack
// around it. replayKeys is the size of that sample at the reference scale.
const replayKeys = 2048

// layers runs every replay. It runs after the live stack has been closed;
// the workload's documents stay readable in memory through their last
// published snapshot.
func (p *passRun) layers(seed uint64) error {
	g := newGen(seed ^ 0x6c61796572) // its own stream: the replays must not shift the workload's
	keys := replayKeys
	if n := int(p.sp.mainKeys()); n < keys {
		keys = n &^ 127
		if keys < 256 {
			keys = 256
		}
	}
	last := p.docs[len(p.docs)-1]
	p.protocolLayer(uint64(last.ID()), keys)
	if err := p.engineLayers(g, keys); err != nil {
		return err
	}
	if err := p.texttreeLayer(g, last); err != nil {
		return err
	}
	p.awarenessLayer(keys)
	return nil
}

// memConn lets a protocol.Codec read frames out of memory.
type memConn struct{ *bytes.Reader }

func (memConn) Write(b []byte) (int, error) { return len(b), nil }
func (memConn) Close() error                { return nil }

// protocolLayer encodes and decodes the frames one key costs on a v3
// connection: the edit request, its acknowledgement and the push to the
// peer, plus the 128-key edit a streaming session sends.
func (p *passRun) protocolLayer(doc uint64, n int) {
	edit := func(text string) *protocol.Message {
		return &protocol.Message{Type: protocol.TypeRequest, ID: 31337, Op: protocol.OpEdit, Doc: doc,
			Ops: []protocol.EditOp{{Kind: protocol.EditInsert, Prev: true, Text: text}}}
	}
	edit1, edit128 := edit("k"), edit(p.g.text(128))
	push := &protocol.Message{Type: protocol.TypePush, Event: &protocol.Event{
		Seq: 31337, Doc: doc, Kind: "insert", User: "ann", Pos: p.sp.visible / 3, Text: "k",
		AtNS: time.Now().UnixNano()}}
	ack := &protocol.Message{Type: protocol.TypeResponse, ID: 31337, OK: true,
		Results: []protocol.EditResult{{OpID: doc + 31337, IDs: []uint64{doc + 31338}, Pos: p.sp.visible / 3}}}

	size := func(m *protocol.Message) float64 {
		f, _ := protocol.EncodeFrame(m, protocol.Version3) // the binary encoder has no error path
		return float64(len(f))
	}
	p.m["protocol.edit_frame_bytes_1key"] = size(edit1)
	p.m["protocol.edit_frame_bytes_128key"] = size(edit128)
	p.m["protocol.push_frame_bytes_1key"] = size(push)
	p.m["protocol.ack_frame_bytes"] = size(ack)

	timeCodec := func(m *protocol.Message, label string) (enc, dec float64) {
		var stream bytes.Buffer
		sp := p.tr.begin("protocol", "encode_"+label, 0, 0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f, _ := protocol.EncodeFrame(m, protocol.Version3)
			stream.Write(f)
		}
		enc = us(time.Since(t0)) / float64(n)
		p.tr.end(sp)
		codec := protocol.NewCodec(memConn{bytes.NewReader(stream.Bytes())})
		sp = p.tr.begin("protocol", "decode_"+label, 0, 0)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			if _, err := codec.Recv(); err != nil {
				p.problem("protocol: decoding its own %s frame: %v", label, err)
				break
			}
		}
		dec = us(time.Since(t0)) / float64(n)
		p.tr.end(sp)
		return enc, dec
	}
	p.m["protocol.encode_us_1key"], p.m["protocol.decode_us_1key"] = timeCodec(edit1, "1key")
	p.m["protocol.encode_us_128key"], p.m["protocol.decode_us_128key"] = timeCodec(edit128, "128key")
}

// engineLayers replays keys into a scratch stack built like the live one:
// core.Document.ApplyAsync and Engine.WaitDurable for single keys and for
// 128-key batches, six-character deletes, and empty transactions.
func (p *passRun) engineLayers(g *gen, keys int) error {
	st, err := openStack(filepath.Join(p.dir, "scratch"), p.tr)
	if err != nil {
		return err
	}
	defer st.close()
	d, err := st.eng.CreateDocument("import", "scratch")
	if err != nil {
		return err
	}
	if err := buildDocument(d, g, p.sp.visible, p.sp.deleted); err != nil {
		return err
	}
	anchor, ok := d.Snapshot().Tree().IDAt(d.Len() / 3)
	if !ok {
		return fmt.Errorf("scratch document has no character at %d", d.Len()/3)
	}

	// insert applies one batch anchored after the previous one and waits
	// for it, timing the two halves apart. Log appends happen on the
	// flusher's goroutine while this one waits, so they are charged to the
	// wait span.
	var applyNS, waitNS time.Duration
	insert := func(op int64, text string) error {
		sp := p.tr.begin("core", "apply", 0, op)
		t0 := time.Now()
		res, lsn, err := d.ApplyAsync("ann", []core.EditOp{{Kind: core.EditInsert, Anchor: anchor, UseAnchor: true, Text: text}})
		applyNS += time.Since(t0)
		p.tr.end(sp)
		if err != nil {
			return err
		}
		sp = p.tr.begin("core", "wait_durable", 0, op)
		prev := p.tr.enter(sp)
		t0 = time.Now()
		err = st.eng.WaitDurable(lsn)
		waitNS += time.Since(t0)
		p.tr.leave(prev)
		p.tr.end(sp)
		anchor = res[0].IDs[len(res[0].IDs)-1]
		return err
	}

	text := g.text(keys)
	for i := 0; i < keys; i++ {
		if err := insert(int64(i), text[i:i+1]); err != nil {
			return fmt.Errorf("replay key %d: %w", i, err)
		}
	}
	p.m["core.apply_us_1key"] = us(applyNS) / float64(keys)
	p.m["core.wait_durable_us"] = us(waitNS) / float64(keys)

	applyNS = 0
	m0 := mallocs()
	for i := 0; i < keys; i += 128 {
		if err := insert(int64(keys+i), text[i:i+128]); err != nil {
			return fmt.Errorf("replay batch at key %d: %w", i, err)
		}
	}
	p.m["core.apply_allocs_per_key_128"] = float64(mallocs()-m0) / float64(keys)
	p.m["core.apply_us_per_key_128"] = us(applyNS) / float64(keys)

	deletes := keys / 8
	var deleteNS time.Duration
	for i := 0; i < deletes; i++ {
		pos := g.rng.Intn(d.Len() - 6)
		sp := p.tr.begin("core", "delete", 0, int64(i))
		t0 := time.Now()
		_, lsn, err := d.ApplyAsync("ann", []core.EditOp{{Kind: core.EditDelete, Pos: pos, N: 6}})
		deleteNS += time.Since(t0)
		p.tr.end(sp)
		if err == nil {
			err = st.eng.WaitDurable(lsn)
		}
		if err != nil {
			return fmt.Errorf("replay delete %d: %w", i, err)
		}
	}
	p.m["core.delete_us"] = us(deleteNS) / float64(deletes)

	sp := p.tr.begin("txn", "begin_commit", 0, 0)
	t0 := time.Now()
	for i := 0; i < keys; i++ {
		tx, err := st.db.Begin()
		if err == nil {
			_, err = tx.CommitAsync()
		}
		if err != nil {
			return fmt.Errorf("empty transaction %d: %w", i, err)
		}
	}
	p.m["txn.begin_commit_us"] = us(time.Since(t0)) / float64(keys)
	p.tr.end(sp)
	return st.db.Log().Flush()
}

// texttreeLayer measures the text structure on its own: a Buffer loaded
// from the end-state document's characters, tombstones included.
func (p *passRun) texttreeLayer(g *gen, d *core.Document) error {
	rows := d.Snapshot().Tree().AllChars()
	before := settledHeap()
	buf, err := texttree.Load(rows)
	if err != nil {
		return fmt.Errorf("texttree: load: %w", err)
	}
	p.m["texttree.bytes_per_char"] = (float64(settledHeap()) - float64(before)) / float64(len(rows))

	// Every Buffer.Snapshot is a fresh view: its first lookup by identity
	// builds the rank index, its first Text renders the document.
	probe := rows[len(rows)/2].ID
	var lookups, texts []float64
	for i := 0; i < 5; i++ {
		s := buf.Snapshot()
		t0 := time.Now()
		if _, ok := s.Char(probe); !ok {
			return fmt.Errorf("texttree: character %v not found", probe)
		}
		lookups = append(lookups, us(time.Since(t0)))
		t0 = time.Now()
		text := s.Text()
		texts = append(texts, us(time.Since(t0)))
		if len(text) != buf.Len() {
			return fmt.Errorf("texttree: rendered %d bytes of %d characters", len(text), buf.Len())
		}
	}
	p.m["texttree.first_lookup_us"] = median(lookups)
	p.m["texttree.text_us"] = median(texts)

	s := buf.Snapshot()
	const ranges = 256
	t0 := time.Now()
	for i := 0; i < ranges; i++ {
		if ids := s.RangeIDs(g.rng.Intn(buf.Len()), 1); len(ids) != 1 {
			return fmt.Errorf("texttree: RangeIDs returned %d IDs", len(ids))
		}
	}
	p.m["texttree.range_ids_us"] = us(time.Since(t0)) / ranges

	var maxID util.ID
	for i := range rows {
		if rows[i].ID > maxID {
			maxID = rows[i].ID
		}
	}
	prev, _ := buf.IDAt(buf.Len() / 3)
	const runs, runLen = 16, 128
	run := make([]texttree.Char, runLen)
	now := time.Now()
	var insertNS time.Duration
	for r := 0; r < runs; r++ {
		for i := range run {
			maxID++
			run[i] = texttree.Char{ID: maxID, Rune: 'k', Author: "ann", Created: now}
		}
		t0 := time.Now()
		if _, err := buf.InsertRun(prev, run); err != nil {
			return fmt.Errorf("texttree: InsertRun: %w", err)
		}
		insertNS += time.Since(t0)
		prev = maxID
	}
	p.m["texttree.insert_run_us_per_key"] = us(insertNS) / (runs * runLen)
	runtime.KeepAlive(buf)
	return nil
}

// awarenessLayer times a bus of its own with two subscribers: what Publish
// costs the committer, and how long after it a subscriber has the event.
func (p *passRun) awarenessLayer(n int) {
	bus := awareness.NewBus(0)
	const doc = util.ID(1)
	got := make(chan time.Duration) // unbuffered: the publisher takes each receipt before it publishes again
	var subs []*awareness.Subscription
	for i := 0; i < 2; i++ {
		sub := bus.Subscribe(doc, awareness.SubscribeOpts{OverflowPolicy: awareness.ShedAndResync})
		subs = append(subs, sub)
		go func() {
			for {
				ev, ok := sub.Next()
				if !ok {
					return
				}
				got <- time.Since(ev.At)
			}
		}()
	}
	var publishNS, deliverNS time.Duration
	for i := 0; i < n; i++ {
		ev := awareness.Event{Doc: doc, Kind: awareness.EvInsert, User: "ann", Pos: i, Text: "k", At: time.Now()}
		bus.Publish(ev)
		publishNS += time.Since(ev.At)
		deliverNS += <-got + <-got
	}
	for _, sub := range subs {
		sub.Close()
	}
	p.m["awareness.publish_us"] = us(publishNS) / float64(n)
	p.m["awareness.deliver_us"] = us(deliverNS) / float64(2*n)
}

// indexLayer times queries against the live stack's index, one vocabulary
// word each, after the index has caught up.
func (p *passRun) indexLayer() {
	ix := p.st.cl.Index()
	const queries = 64
	sp := p.tr.begin("index", "query", 0, 0)
	t0 := time.Now()
	for i := 0; i < queries; i++ {
		if _, err := ix.Query(search.Query{Terms: []string{p.g.vocab[i%len(p.g.vocab)]}, Limit: 10}); err != nil {
			p.problem("index: query: %v", err)
			break
		}
	}
	p.m["index.query_us"] = us(time.Since(t0)) / queries
	p.tr.end(sp)
}
