// Package core implements the TeNDaX engine: documents stored natively in
// the embedded database as sequences of character instances, with every editing
// action (typing, deleting, copy/paste, layout, structure, notes, versions)
// executed as a real-time database transaction and automatically captured as
// metadata. This is the paper's primary contribution.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/db"
	"tendax/internal/texttree"
	"tendax/internal/txn"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// Right is an access right checked before operations.
type Right string

// Access rights.
const (
	RRead     Right = "read"
	RWrite    Right = "write"
	RGrant    Right = "grant"
	RWorkflow Right = "workflow"
)

// AccessChecker is the hook through which the security subsystem vets
// operations. A nil checker allows everything (single-user embedded mode).
type AccessChecker interface {
	// Check returns nil if user holds right on doc.
	Check(user string, doc util.ID, right Right) error
	// ReadableMask reports, per character, whether user may read it.
	// A nil slice means everything is readable.
	ReadableMask(user string, doc util.ID, ids []util.ID) []bool
}

// ErrDocNotFound reports an unknown document.
var ErrDocNotFound = errors.New("core: document not found")

// ErrRange reports an out-of-range position argument.
var ErrRange = errors.New("core: position out of range")

// Engine hosts all documents of one TeNDaX database.
type Engine struct {
	db    *db.Database
	clock util.Clock
	ids   util.IDGen
	bus   *awareness.Bus
	check AccessChecker

	tDocs     *db.Table
	tChars    *db.Table
	tSpans    *db.Table
	tOps      *db.Table
	tOpChunks *db.Table
	tVersions *db.Table
	tReads    *db.Table
	tProps    *db.Table
	tArchive  *db.Table

	mu   sync.Mutex
	docs map[util.ID]*Document

	// Document-creation observer (SetDocObserver): the incremental
	// indexer registers here so documents born after it primed are
	// picked up without rescanning the docs table.
	obsMu  sync.RWMutex
	docObs func(id util.ID, external bool)

	// Background tombstone compactor (StartCompactor / StopCompactor).
	compactMu   sync.Mutex
	compactErr  error
	compactStop chan struct{}
	compactDone chan struct{}
}

var (
	docsSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "name", Type: db.TString},
		{Name: "creator", Type: db.TString},
		{Name: "created", Type: db.TTime},
		{Name: "state", Type: db.TString}, // draft | final | external
		{Name: "authors", Type: db.TString},
	}
	// A chars row is one run of character instances (rows.go): the
	// instances id, id+step, ..., one per rune of text.
	charsSchema = db.Schema{
		{Name: "id", Type: db.TInt}, // the run's first instance
		{Name: "doc", Type: db.TInt},
		{Name: "step", Type: db.TInt},  // between the run's IDs (0 for a run of one)
		{Name: "after", Type: db.TInt}, // the instance the first was typed after (0 = front)
		{Name: "key", Type: db.TInt},   // its order among the instances typed after the same one
		{Name: "text", Type: db.TString},
		{Name: "author", Type: db.TString},
		{Name: "created", Type: db.TTime},
		{Name: "del", Type: db.TBytes},   // deletion state, empty if never deleted (appendDel)
		{Name: "srcdoc", Type: db.TInt},  // paste source document
		{Name: "srcchar", Type: db.TInt}, // the first instance's source instance
		{Name: "srcstep", Type: db.TInt}, // between the source instances
	}
	// Cold tombstones migrated out of the chars table by compaction live
	// here as archive runs: binary-encoded character records packed into
	// fixed-size chunk rows, keyed by the run's surviving hot anchor
	// (NilID for runs at the head of the document) and ordered by seq.
	archiveSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "doc", Type: db.TInt},
		{Name: "anchor", Type: db.TInt},
		{Name: "seq", Type: db.TInt},
		{Name: "chars", Type: db.TBytes},
	}
	spansSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "doc", Type: db.TInt},
		{Name: "kind", Type: db.TString},
		{Name: "value", Type: db.TString},
		{Name: "startc", Type: db.TInt},
		{Name: "endc", Type: db.TInt},
		{Name: "author", Type: db.TString},
		{Name: "created", Type: db.TTime},
		{Name: "removed", Type: db.TBool},
	}
	opsSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "doc", Type: db.TInt},
		{Name: "user", Type: db.TString},
		{Name: "kind", Type: db.TInt},    // an opKind code
		{Name: "chars", Type: db.TBytes}, // affected char IDs (first chunk)
		{Name: "ref", Type: db.TInt},     // span ID or referenced op ID
		{Name: "created", Type: db.TTime},
		{Name: "undone", Type: db.TBool},
	}
	// Operations touching many characters spill their ID list into
	// fixed-size continuation rows so no row outgrows a page.
	opChunksSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "op", Type: db.TInt},
		{Name: "seq", Type: db.TInt},
		{Name: "chars", Type: db.TBytes},
	}
	versionsSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "doc", Type: db.TInt},
		{Name: "name", Type: db.TString},
		{Name: "author", Type: db.TString},
		{Name: "at", Type: db.TTime},
	}
	readsSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "doc", Type: db.TInt},
		{Name: "user", Type: db.TString},
		{Name: "at", Type: db.TTime},
	}
	propsSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "doc", Type: db.TInt},
		{Name: "key", Type: db.TString},
		{Name: "value", Type: db.TString},
	}
)

// NewEngine opens (creating schema as needed) a TeNDaX engine over
// database. clock may be nil (system clock).
func NewEngine(database *db.Database, clock util.Clock) (*Engine, error) {
	return NewEngineShard(database, clock, 0, 1)
}

// NewEngineShard opens an engine that is shard `shard` of `shards` in a
// multi-engine process (see internal/placement). Its ID generator mints
// only from the residue class shard+1 mod shards, so a document ID alone
// determines which shard owns it — no placement table, and IDs minted by
// different shards can never collide. NewEngineShard(db, clock, 0, 1) is
// identical to NewEngine.
func NewEngineShard(database *db.Database, clock util.Clock, shard, shards int) (*Engine, error) {
	if clock == nil {
		clock = util.NewSystemClock()
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("core: invalid shard %d of %d", shard, shards)
	}
	e := &Engine{
		db:    database,
		clock: clock,
		bus:   awareness.NewBus(0),
		docs:  make(map[util.ID]*Document),
	}
	if shards > 1 {
		// Must precede the MaxPK seeding below so Seed lands on the class.
		e.ids.SetStride(uint64(shard), uint64(shards))
	}
	for _, t := range []struct {
		dst    **db.Table
		name   string
		schema db.Schema
		index  []string
	}{
		{&e.tDocs, "docs", docsSchema, []string{"name"}},
		{&e.tChars, "chars", charsSchema, []string{"doc"}},
		{&e.tSpans, "spans", spansSchema, []string{"doc"}},
		{&e.tOps, "ops", opsSchema, []string{"doc"}},
		{&e.tOpChunks, "opchunks", opChunksSchema, []string{"op"}},
		{&e.tVersions, "versions", versionsSchema, []string{"doc"}},
		{&e.tReads, "reads", readsSchema, []string{"doc", "user"}},
		{&e.tProps, "props", propsSchema, []string{"doc"}},
		{&e.tArchive, "archive", archiveSchema, []string{"doc", "anchor"}},
	} {
		tbl, err := database.CreateTable(t.name, t.schema, t.index...)
		if err != nil {
			return nil, err
		}
		// CreateTable returns an existing table with its persisted schema;
		// rows of another layout would decode into the wrong fields, or
		// panic, so the data directory is refused before any row is read.
		if err := checkSchema(t.name, tbl.Schema(), t.schema); err != nil {
			return nil, err
		}
		*t.dst = tbl
		// Seed the ID generator above every persisted primary key.
		e.ids.Seed(util.ID(tbl.MaxPK()))
	}
	// A chars row's key is its first instance: seed above the last
	// instance of the newest run.
	if run, _, err := e.runOf(nil, &rowBuf{}, util.ID(e.tChars.MaxPK())); err == nil {
		e.ids.Seed(run.Last())
	}
	return e, nil
}

// SchemaError reports a table whose persisted schema differs from the one
// this build reads and writes: the data directory needs a migration this
// build does not provide. Have and Want describe the first differing
// column, as "name type", in the data directory and in this build; "none"
// past the end of either.
type SchemaError struct {
	Table      string
	Column     int
	Have, Want string
}

func (e *SchemaError) Error() string {
	return fmt.Sprintf("core: table %q column %d is %s in the data directory but %s in this build; it needs a migration this build does not provide",
		e.Table, e.Column, e.Have, e.Want)
}

// checkSchema returns a *SchemaError if have, a table's persisted schema,
// is not want.
func checkSchema(table string, have, want db.Schema) error {
	col := func(s db.Schema, i int) string {
		if i >= len(s) {
			return "none"
		}
		return fmt.Sprintf("%s %v", s[i].Name, s[i].Type)
	}
	for i := 0; i < max(len(have), len(want)); i++ {
		if h, w := col(have, i), col(want, i); h != w {
			return &SchemaError{Table: table, Column: i, Have: h, Want: w}
		}
	}
	return nil
}

// SetAccessChecker installs the security hook. Pass nil to disable checks.
func (e *Engine) SetAccessChecker(c AccessChecker) { e.check = c }

// Bus returns the awareness bus.
func (e *Engine) Bus() *awareness.Bus { return e.bus }

// Clock returns the engine clock.
func (e *Engine) Clock() util.Clock { return e.clock }

// DB exposes the underlying database (used by sibling subsystems that
// store their own tables).
func (e *Engine) DB() *db.Database { return e.db }

// NewID allocates an engine-unique identifier.
func (e *Engine) NewID() util.ID { return e.ids.Next() }

func (e *Engine) allowed(user string, doc util.ID, right Right) error {
	if e.check == nil {
		return nil
	}
	return e.check.Check(user, doc, right)
}

// CheckAccess exposes the engine's access check to sibling subsystems
// (workflow, server) so they enforce the same policy.
func (e *Engine) CheckAccess(user string, doc util.ID, right Right) error {
	return e.allowed(user, doc, right)
}

// withTxnAsync runs fn inside a transaction, retrying on deadlock victims,
// and commits asynchronously: on return the transaction's effects are
// committed and its locks released, but durability is only guaranteed once
// WaitDurable succeeds for the returned LSN. Callers use it to get fsyncs
// out of whatever lock they hold, so concurrent editors share one group
// commit instead of queueing behind each other's disk writes.
func (e *Engine) withTxnAsync(fn func(tx *txn.Txn) error) (wal.LSN, error) {
	const retries = 8
	var lastErr error
	for attempt := 0; attempt < retries; attempt++ {
		tx, err := e.db.Begin()
		if err != nil {
			return 0, err
		}
		if err := fn(tx); err != nil {
			abortErr := tx.Abort()
			if errors.Is(err, txn.ErrDeadlock) && abortErr == nil {
				lastErr = err
				time.Sleep(time.Duration(attempt+1) * time.Millisecond)
				continue
			}
			return 0, err
		}
		lsn, err := tx.CommitAsync()
		if err != nil {
			return 0, err
		}
		return lsn, nil
	}
	return 0, fmt.Errorf("core: giving up after %d deadlock retries: %w", retries, lastErr)
}

// withTxn runs fn inside a transaction, retrying on deadlock victims, and
// returns only once the commit is durable.
func (e *Engine) withTxn(fn func(tx *txn.Txn) error) error {
	lsn, err := e.withTxnAsync(fn)
	if err != nil {
		return err
	}
	return e.db.WaitDurable(lsn)
}

// WaitDurable blocks until the write-ahead log's durable horizon covers
// lsn. Paired with the engine's *Async editing methods, it lets callers
// (the server's connection pipeline) acknowledge an edit only after it is
// on stable storage while other connections keep committing.
func (e *Engine) WaitDurable(lsn wal.LSN) error { return e.db.WaitDurable(lsn) }

// CreateDocument creates a new, empty document owned by user.
func (e *Engine) CreateDocument(user, name string) (*Document, error) {
	id := e.ids.Next()
	now := e.clock.Now()
	row := db.Row{int64(id), name, user, now, "draft", user}
	err := e.withTxn(func(tx *txn.Txn) error {
		_, err := e.tDocs.Insert(tx, row)
		return err
	})
	if err != nil {
		return nil, err
	}
	d := e.cache(newDocument(e, id, row))
	e.notifyDocObserver(id, false)
	return d, nil
}

// SetDocObserver registers fn to run after every successful
// CreateDocument / CreateExternalSource commit (external tells which).
// One observer at a time; nil unregisters. fn runs on the creating
// goroutine and must not call back into document mutation.
func (e *Engine) SetDocObserver(fn func(id util.ID, external bool)) {
	e.obsMu.Lock()
	e.docObs = fn
	e.obsMu.Unlock()
}

func (e *Engine) notifyDocObserver(id util.ID, external bool) {
	e.obsMu.RLock()
	fn := e.docObs
	e.obsMu.RUnlock()
	if fn != nil {
		fn(id, external)
	}
}

// CreateExternalSource registers an external document (something outside
// the TeNDaX store that text was pasted from) so lineage can reference it.
func (e *Engine) CreateExternalSource(name string) (util.ID, error) {
	id := e.ids.Next()
	now := e.clock.Now()
	err := e.withTxn(func(tx *txn.Txn) error {
		_, err := e.tDocs.Insert(tx, db.Row{
			int64(id), name, "", now, "external", "",
		})
		return err
	})
	if err != nil {
		return util.NilID, err
	}
	e.notifyDocObserver(id, true)
	return id, nil
}

// OpenDocument returns a handle on the document, loading its character
// chain from the database on first open.
func (e *Engine) OpenDocument(id util.ID) (*Document, error) {
	e.mu.Lock()
	if d, ok := e.docs[id]; ok {
		e.mu.Unlock()
		return d, nil
	}
	e.mu.Unlock()

	row, _, err := e.tDocs.GetByPK(nil, int64(id))
	if errors.Is(err, db.ErrNotFound) {
		return nil, ErrDocNotFound
	}
	if err != nil {
		return nil, err
	}
	d := newDocument(e, id, row)
	if err := d.load(); err != nil {
		return nil, err
	}
	return e.cache(d), nil
}

// cache makes d the engine's handle on its document and returns it, unless
// a handle is cached already: then d lost a race with another open, or
// with a scan that opened a document created a moment ago, and the cached
// handle is returned.
func (e *Engine) cache(d *Document) *Document {
	e.mu.Lock()
	defer e.mu.Unlock()
	if prior, ok := e.docs[d.id]; ok {
		return prior
	}
	e.docs[d.id] = d
	return d
}

// FindDocument resolves a document by name (first match).
func (e *Engine) FindDocument(name string) (*Document, error) {
	rids, err := e.tDocs.LookupEq("name", name)
	if err != nil {
		return nil, err
	}
	if len(rids) == 0 {
		return nil, ErrDocNotFound
	}
	row, err := e.tDocs.Get(nil, rids[0])
	if err != nil {
		return nil, err
	}
	return e.OpenDocument(util.ID(row[0].(int64)))
}

// DocInfo is document-level metadata, gathered automatically during the
// document creation process (paper §2).
type DocInfo struct {
	ID         util.ID
	Name       string
	Creator    string
	Created    time.Time
	Modified   time.Time // of the newest op but a copy; Created if none
	LastAuthor string    // of the newest op but a copy; Creator if none
	Size       int       // visible characters
	State      string
	Authors    []string // sorted; shared between DocInfos, so read-only
}

// ListDocuments returns metadata for every non-external document.
func (e *Engine) ListDocuments() ([]DocInfo, error) { return e.docInfos(false) }

// ExternalSources returns the registered external source documents.
func (e *Engine) ExternalSources() ([]DocInfo, error) { return e.docInfos(true) }

// docInfos answers DocInfoByID for every document that is, or is not, an
// external source. The IDs are collected first, so no document is opened
// inside the scan of the docs table. The scan reads the heap outside any
// transaction, so it can see a row whose primary-key entry is not in yet,
// or one its transaction then aborts; an ID that DocInfoByID does not find
// is such a row and is left out.
func (e *Engine) docInfos(external bool) ([]DocInfo, error) {
	var ids []util.ID
	err := e.tDocs.Scan(nil, func(_ db.RID, row db.Row) (bool, error) {
		if (row[4].(string) == "external") == external {
			ids = append(ids, util.ID(row[0].(int64)))
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]DocInfo, 0, len(ids))
	for _, id := range ids {
		info, err := e.DocInfoByID(id)
		if errors.Is(err, ErrDocNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	return out, nil
}

// DocInfoByID returns Document.Info of one document. A document no handle
// has opened is opened to answer: its size and newest change are derived
// from its characters and its operation log, not stored in the docs row.
func (e *Engine) DocInfoByID(id util.ID) (DocInfo, error) {
	d, err := e.OpenDocument(id)
	if err != nil {
		return DocInfo{}, err
	}
	return d.Info(), nil
}

// info derives the document's metadata from p: the docs row's fields, the
// snapshot's visible length and the newest change. Every DocInfo the
// engine returns is made here.
func (p *published) info() DocInfo {
	return DocInfo{
		ID:         util.ID(p.row[0].(int64)),
		Name:       p.row[1].(string),
		Creator:    p.row[2].(string),
		Created:    p.row[3].(time.Time),
		Modified:   time.Unix(0, p.last.Created).UTC(),
		LastAuthor: p.last.User,
		Size:       p.snap.t.Len(),
		State:      p.row[4].(string),
		Authors:    p.authors,
	}
}

// ScanCharMeta streams the metadata of every character instance in the
// store (tombstones included) until fn returns false. Lineage and mining
// build their structures from this stream without opening documents.
func (e *Engine) ScanCharMeta(fn func(doc util.ID, meta CharMeta) bool) error {
	var chars []texttree.Char
	var rb rowBuf
	return e.tChars.ScanRecords(func(_ db.RID, rec []byte) (bool, error) {
		run, doc, err := rb.decodeRun(e.tChars, rec)
		if err != nil {
			return false, err
		}
		chars = run.AppendChars(chars[:0])
		for i := range chars {
			if !fn(doc, charMetaOf(&chars[i])) {
				return false, nil
			}
		}
		return true, nil
	})
}

// CharByID resolves one character instance anywhere in the store,
// returning its document and metadata (provenance chain walking).
//
//tendax:allow-testonly paper capability with no wire or CLI caller yet: a character's transitive pedigree, which lineage's provenanceChain follows
func (e *Engine) CharByID(id util.ID) (util.ID, CharMeta, error) {
	run, doc, err := e.runOf(nil, &rowBuf{}, id)
	if err != nil {
		return util.NilID, CharMeta{}, err
	}
	chars := run.AppendChars(nil)
	return doc, charMetaOf(&chars[run.Index(id)]), nil
}

// OpCountOf returns the number of logged operations on a document (an
// activity measure used by visual mining).
func (e *Engine) OpCountOf(doc util.ID) int {
	rids, err := e.tOps.LookupEq("doc", int64(doc))
	if err != nil {
		return 0
	}
	return len(rids)
}
