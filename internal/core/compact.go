package core

import (
	"fmt"
	"log"
	"sort"
	"time"

	"tendax/internal/db"
	"tendax/internal/texttree"
	"tendax/internal/txn"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// This file implements tombstone compaction at the document level: cold
// tombstones (instances deleted before a caller-chosen horizon) migrate
// out of the chars table and the in-memory hot structures into archive
// runs, in one transaction, so the move is crash-safe and replayable
// through the ordinary WAL machinery — a crash mid-compaction rolls the
// whole pass back, a crash after commit replays it. Provenance stays
// queryable: TextAt/VersionText/DiffVersions merge the archive back in
// whenever the requested instant predates the horizon, and undo of an
// archived delete rehydrates the instance into the hot set first.

// archChunkBytes bounds the encoded payload stored per archive row; a run
// longer than one chunk spills into continuation rows ordered by seq.
const archChunkBytes = 1024

// CompactStats reports one compaction pass.
type CompactStats struct {
	Runs      int // cold runs archived by this pass
	Archived  int // character instances moved to the archive
	HotBefore int // hot instances (incl. warm tombstones) before the pass
	HotAfter  int // hot instances after the pass
}

// Compact migrates every tombstone deleted before horizon out of the hot
// set, order index, snapshot mirror and chars table into the archive.
// It runs as one transaction and never invalidates a published snapshot:
// readers holding an older DocSnapshot keep the pre-compaction mirror,
// which the pass rebuilds rather than changes. The visible text is unchanged, so the new
// snapshot republishes under the current event sequence number.
func (d *Document) Compact(horizon time.Time) (CompactStats, error) {
	stats, lsn, err := d.compactLocked(horizon)
	if err != nil || lsn == 0 {
		return stats, err
	}
	// Durability wait outside the document lock, like the editing methods:
	// the pass is committed and visible; a crash before the flush simply
	// rolls it back to an equivalent uncompacted state.
	if err := d.eng.WaitDurable(lsn); err != nil {
		return stats, err
	}
	return stats, nil
}

func (d *Document) compactLocked(horizon time.Time) (CompactStats, wal.LSN, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// A pass may merge into runs already on disk; the archive must be
	// resident before planning.
	if _, err := d.ensureArchiveLocked(); err != nil {
		return CompactStats{}, 0, err
	}
	// The merge-on-read ordering argument (archive.go) needs every
	// archived instance dead before any instance the pass has not seen is
	// created; clamping the horizon to "now" guarantees it.
	if now := d.eng.clock.Now(); horizon.After(now) {
		horizon = now
	}
	stats := CompactStats{HotBefore: d.buf.TotalLen(), HotAfter: d.buf.TotalLen()}
	plan := d.buf.PlanCompaction(horizon)
	if plan == nil {
		return stats, 0, nil
	}
	lsn, err := d.eng.withTxnAsync(func(tx *txn.Txn) error {
		for _, anchor := range plan.RemovedAnchors {
			if err := d.deleteArchiveRows(tx, anchor); err != nil {
				return err
			}
		}
		for _, anchor := range sortedAnchors(plan.MergedRuns) {
			if err := d.deleteArchiveRows(tx, anchor); err != nil {
				return err
			}
			if err := d.insertArchiveRows(tx, anchor, plan.MergedRuns[anchor]); err != nil {
				return err
			}
		}
		// The cold instances leave the chars table and the re-anchored ones
		// take their new After, each row rewritten once.
		var edits []rowEdit
		stride := d.eng.rowStep()
		for _, run := range plan.Runs {
			for _, ch := range run.Chars {
				if k := len(edits) - 1; k >= 0 && ch.ID == edits[k].last()+stride {
					edits[k].n++
				} else {
					edits = append(edits, rowEdit{first: ch.ID, step: stride, n: 1, kind: editDrop})
				}
			}
		}
		for _, ch := range plan.Reanchored {
			edits = append(edits, rowEdit{first: ch.ID, step: 1, n: 1, kind: editAnchor, after: ch.After})
		}
		return d.rewriteRuns(tx, &rowBuf{enc: d.eng.tChars.Encoder(1)}, edits, "", time.Time{})
	})
	if err != nil {
		return stats, 0, err
	}
	d.buf.ApplyCompaction(plan)
	for _, run := range plan.Runs {
		stats.Runs++
		stats.Archived += len(run.Chars)
	}
	stats.HotAfter = d.buf.TotalLen()
	// Republish so new readers get the shrunken structures. The visible
	// text is untouched, so the existing sequence number still holds its
	// promise ("contains every text event up to seq").
	d.republishLocked()
	return stats, lsn, nil
}

// sortedAnchors returns the anchors of runs in ascending order: archive
// rows take their IDs and page slots in the order they are written, so
// one edit sequence writes the same rows and log bytes every run.
func sortedAnchors(runs map[util.ID][]*texttree.Char) []util.ID {
	anchors := make([]util.ID, 0, len(runs))
	for anchor := range runs {
		anchors = append(anchors, anchor)
	}
	sort.Slice(anchors, func(i, j int) bool { return anchors[i] < anchors[j] })
	return anchors
}

// Archive lazy-load states (Document.archState).
const (
	archNone    int32 = iota // no archive rows on disk
	archPending              // rows exist but have not been decoded
	archLoaded               // arch0 installed in the buffer
)

// ensureArchive makes the document's cold archive resident, decoding the
// archive rows on first need. It returns the archive as first loaded
// (nil when the document has none). Opening a document skips the decode
// entirely — open cost tracks the hot set — and every path that can
// actually touch pre-horizon state (time travel, undo rehydration,
// compaction, bulk buffer export) funnels through here first.
func (d *Document) ensureArchive() (*texttree.Archive, error) {
	switch d.archState.Load() {
	case archNone:
		return nil, nil
	case archLoaded:
		return d.arch0, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ensureArchiveLocked()
}

// ensureArchiveLocked is ensureArchive for callers already holding d.mu.
func (d *Document) ensureArchiveLocked() (*texttree.Archive, error) {
	switch d.archState.Load() {
	case archNone:
		return nil, nil
	case archLoaded:
		return d.arch0, nil
	}
	arch, err := d.loadArchive()
	if err != nil {
		return nil, err // sticky-pending: retried on the next read
	}
	if arch == nil {
		d.archState.Store(archNone)
		return nil, nil
	}
	d.buf.SetArchive(arch)
	// Republish so new snapshots carry the archive; the visible text is
	// untouched, so the current sequence number keeps its promise.
	d.republishLocked()
	d.arch0 = arch
	d.archLoadVersion = d.buf.Version()
	d.archState.Store(archLoaded)
	return arch, nil
}

// timeTravelTree returns t with the document's cold archive merged in
// when t was published before the archive was loaded. A snapshot taken
// while the archive was still on disk has the full pre-compaction hot
// tree minus the archived cold set, and the archive as first loaded is
// exactly that missing set; snapshots taken after the load carry their
// own archive. On an archive I/O error the hot-only tree is returned —
// callers that must surface the error call ensureArchive themselves.
func (d *Document) timeTravelTree(t *texttree.Snapshot) *texttree.Snapshot {
	if t.Archive().Len() > 0 {
		return t
	}
	if d.archState.Load() == archNone {
		return t
	}
	arch, err := d.ensureArchive()
	if err != nil || arch == nil || arch.Len() == 0 {
		return t
	}
	if t.Version() <= d.archLoadVersion {
		return t.WithArchive(arch)
	}
	return t
}

// archiveResident reports whether the cold archive is decoded in memory
// (false while lazily parked on disk). Tests and operators use it to
// verify that opening a document did not pay for its cold history.
func (d *Document) archiveResident() bool { return d.archState.Load() != archPending }

// loadArchive rebuilds the document's cold-tombstone archive from the
// archive table (document open).
func (d *Document) loadArchive() (*texttree.Archive, error) {
	rids, err := d.eng.tArchive.LookupEq("doc", int64(d.id))
	if err != nil {
		return nil, err
	}
	if len(rids) == 0 {
		return nil, nil
	}
	type chunk struct {
		seq     int64
		payload []byte
	}
	byAnchor := make(map[util.ID][]chunk)
	for _, rid := range rids {
		row, err := d.eng.tArchive.Get(nil, rid)
		if err != nil {
			return nil, err
		}
		anchor := util.ID(row[2].(int64))
		byAnchor[anchor] = append(byAnchor[anchor], chunk{row[3].(int64), row[4].([]byte)})
	}
	runs := make(map[util.ID][]*texttree.Char, len(byAnchor))
	for anchor, chunks := range byAnchor {
		sort.Slice(chunks, func(i, j int) bool { return chunks[i].seq < chunks[j].seq })
		var run []*texttree.Char
		for _, c := range chunks {
			b := c.payload
			for len(b) > 0 {
				ch, rest, err := texttree.DecodeArchived(b)
				if err != nil {
					return nil, fmt.Errorf("archive run at %v: %w", anchor, err)
				}
				run = append(run, &ch)
				b = rest
			}
		}
		runs[anchor] = run
	}
	return texttree.NewArchive(runs), nil
}

// deleteArchiveRows removes every persisted chunk of the run anchored at
// anchor (no-op if none exist).
func (d *Document) deleteArchiveRows(tx *txn.Txn, anchor util.ID) error {
	rids, err := d.eng.tArchive.LookupEq("anchor", int64(anchor))
	if err != nil {
		return err
	}
	for _, rid := range rids {
		row, err := d.eng.tArchive.Get(tx, rid)
		if err != nil {
			return err
		}
		if util.ID(row[1].(int64)) != d.id {
			continue // another document's run under the same anchor key (NilID)
		}
		if err := d.eng.tArchive.Delete(tx, rid); err != nil {
			return err
		}
	}
	return nil
}

// insertArchiveRows persists run as chunked archive rows under anchor.
func (d *Document) insertArchiveRows(tx *txn.Txn, anchor util.ID, run []*texttree.Char) error {
	seq := int64(1)
	var payload []byte
	flush := func() error {
		if len(payload) == 0 {
			return nil
		}
		id := d.eng.ids.Next()
		_, err := d.eng.tArchive.Insert(tx, db.Row{
			int64(id), int64(d.id), int64(anchor), seq, payload,
		})
		payload = nil
		seq++
		return err
	}
	for _, ch := range run {
		payload = texttree.EncodeArchived(payload, ch)
		if len(payload) >= archChunkBytes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// archivedLen returns the number of cold tombstones currently archived.
// It loads the lazily parked archive if needed — it answers a question
// about the cold set, so it is a pre-horizon read by definition.
func (d *Document) archivedLen() int {
	_, _ = d.ensureArchive() // best effort; an I/O error reads as "none loaded"
	return d.snap.Load().snap.t.Archive().Len()
}

// CompactOpenDocuments runs one compaction pass over every open document,
// archiving tombstones deleted before horizon. It returns the total number
// of instances archived.
func (e *Engine) CompactOpenDocuments(horizon time.Time) (int, error) {
	e.mu.Lock()
	docs := make([]*Document, 0, len(e.docs))
	for _, d := range e.docs {
		docs = append(docs, d)
	}
	e.mu.Unlock()
	total := 0
	for _, d := range docs {
		stats, err := d.Compact(horizon)
		if err != nil {
			return total, fmt.Errorf("compact %v: %w", d.ID(), err)
		}
		total += stats.Archived
	}
	return total, nil
}

// StartCompactor runs tombstone compaction in the background, wired like
// the db background checkpointer: every interval it archives, for every
// open document, the tombstones deleted more than retention ago. Off
// unless started explicitly (tendaxd exposes the knobs as flags).
func (e *Engine) StartCompactor(interval, retention time.Duration) {
	if interval <= 0 {
		return
	}
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	if e.compactStop != nil {
		return
	}
	e.compactErr = nil // a fresh run starts healthy
	e.compactStop = make(chan struct{})
	e.compactDone = make(chan struct{})
	stop, done := e.compactStop, e.compactDone
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			_, err := e.CompactOpenDocuments(e.clock.Now().Add(-retention))
			e.compactMu.Lock()
			prev := e.compactErr
			e.compactErr = err // retried on the next tick
			e.compactMu.Unlock()
			// Like the checkpointer: a compactor failing silently defeats
			// its purpose, so log the failure transitions once each way.
			if err != nil && prev == nil {
				log.Printf("core: background compaction failing (will retry): %v", err)
			} else if err == nil && prev != nil {
				log.Printf("core: background compaction recovered")
			}
		}
	}()
}

// StopCompactor stops the background compactor and waits for it to exit.
// It returns the last background compaction error (nil when healthy).
func (e *Engine) StopCompactor() error {
	e.compactMu.Lock()
	stop, done := e.compactStop, e.compactDone
	e.compactStop, e.compactDone = nil, nil
	err := e.compactErr
	e.compactMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return err
}
