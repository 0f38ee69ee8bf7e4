// Package core implements the TeNDaX engine: documents stored natively in
// the embedded database as chains of character instances, with every editing
// action (typing, deleting, copy/paste, layout, structure, notes, versions)
// executed as a real-time database transaction and automatically captured as
// metadata. This is the paper's primary contribution.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/db"
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
		{Name: "modified", Type: db.TTime},
		{Name: "lastauthor", Type: db.TString},
		{Name: "size", Type: db.TInt},
		{Name: "state", Type: db.TString}, // draft | final | external
		{Name: "authors", Type: db.TString},
	}
	charsSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "doc", Type: db.TInt},
		{Name: "r", Type: db.TInt},
		{Name: "author", Type: db.TString},
		{Name: "created", Type: db.TTime},
		{Name: "prev", Type: db.TInt},
		{Name: "next", Type: db.TInt},
		{Name: "deleted", Type: db.TBool},
		{Name: "delby", Type: db.TString},
		{Name: "delat", Type: db.TTime},
		{Name: "srcdoc", Type: db.TInt},
		{Name: "srcchar", Type: db.TInt},
		{Name: "restored", Type: db.TTime}, // undelete instant (zero = never undeleted)
	}
	// Cold tombstones migrated out of the chars table by compaction live
	// here as archive runs: binary-encoded character records packed into
	// fixed-size chunk rows, keyed by the run's surviving hot anchor
	// (NilID for runs at the head of the chain) and ordered by seq.
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
		{Name: "kind", Type: db.TString},
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
	var err error
	if e.tDocs, err = database.CreateTable("docs", docsSchema, "name"); err != nil {
		return nil, err
	}
	if e.tChars, err = database.CreateTable("chars", charsSchema, "doc"); err != nil {
		return nil, err
	}
	if e.tSpans, err = database.CreateTable("spans", spansSchema, "doc"); err != nil {
		return nil, err
	}
	if e.tOps, err = database.CreateTable("ops", opsSchema, "doc"); err != nil {
		return nil, err
	}
	if e.tOpChunks, err = database.CreateTable("opchunks", opChunksSchema, "op"); err != nil {
		return nil, err
	}
	if e.tVersions, err = database.CreateTable("versions", versionsSchema, "doc"); err != nil {
		return nil, err
	}
	if e.tReads, err = database.CreateTable("reads", readsSchema, "doc", "user"); err != nil {
		return nil, err
	}
	if e.tProps, err = database.CreateTable("props", propsSchema, "doc"); err != nil {
		return nil, err
	}
	if e.tArchive, err = database.CreateTable("archive", archiveSchema, "doc", "anchor"); err != nil {
		return nil, err
	}
	// CreateTable returns an existing table with its persisted schema, so
	// a data directory written before the restored column existed would
	// otherwise surface as an index-out-of-range panic on the first row
	// decode. There is no in-place migration yet; fail loudly instead.
	if e.tChars.Schema().Col("restored") < 0 {
		return nil, errors.New("core: chars table predates the restored column; this data directory needs a migration this build does not provide")
	}
	// Seed the ID generator above every persisted primary key.
	for _, t := range []*db.Table{e.tDocs, e.tChars, e.tSpans, e.tOps, e.tOpChunks, e.tVersions, e.tReads, e.tProps, e.tArchive} {
		e.ids.Seed(util.ID(t.MaxPK()))
	}
	return e, nil
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

// Checkpoint takes a fuzzy checkpoint of the underlying database: dirty
// pages flushed up to the current horizon, a begin/end checkpoint pair
// logged, and the redundant log prefix truncated — without pausing editors.
// The server and the db.Options background checkpointer use it to keep
// restart time and log size flat no matter how long the editing history is.
func (e *Engine) Checkpoint() (*wal.CheckpointResult, error) {
	return e.db.FuzzyCheckpoint()
}

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
	row := db.Row{int64(id), name, user, now, now, user, int64(0), "draft", user}
	err := e.withTxn(func(tx *txn.Txn) error {
		_, err := e.tDocs.Insert(tx, row)
		return err
	})
	if err != nil {
		return nil, err
	}
	d := newDocument(e, id, row)
	e.mu.Lock()
	e.docs[id] = d
	e.mu.Unlock()
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
			int64(id), name, "", now, now, "", int64(0), "external", "",
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
	e.mu.Lock()
	if prior, ok := e.docs[id]; ok { // lost a race; use the cached one
		e.mu.Unlock()
		return prior, nil
	}
	e.docs[id] = d
	e.mu.Unlock()
	return d, nil
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
	Modified   time.Time
	LastAuthor string
	Size       int
	State      string
	Authors    []string
}

// ListDocuments returns metadata for every non-external document.
func (e *Engine) ListDocuments() ([]DocInfo, error) {
	var out []DocInfo
	err := e.tDocs.Scan(nil, func(_ db.RID, row db.Row) (bool, error) {
		if row[7].(string) == "external" {
			return true, nil
		}
		out = append(out, docInfoFromRow(row))
		return true, nil
	})
	return out, err
}

// ExternalSources returns the registered external source documents.
func (e *Engine) ExternalSources() ([]DocInfo, error) {
	var out []DocInfo
	err := e.tDocs.Scan(nil, func(_ db.RID, row db.Row) (bool, error) {
		if row[7].(string) == "external" {
			out = append(out, docInfoFromRow(row))
		}
		return true, nil
	})
	return out, err
}

// DocInfoByID returns metadata for one document.
func (e *Engine) DocInfoByID(id util.ID) (DocInfo, error) {
	row, _, err := e.tDocs.GetByPK(nil, int64(id))
	if errors.Is(err, db.ErrNotFound) {
		return DocInfo{}, ErrDocNotFound
	}
	if err != nil {
		return DocInfo{}, err
	}
	return docInfoFromRow(row), nil
}

func docInfoFromRow(row db.Row) DocInfo {
	var authors []string
	if s := row[8].(string); s != "" {
		// The row stores authors in first-edit order; Document.Info sorts.
		// Normalise here so both metadata paths answer identically (the
		// incremental indexer refreshes from the row, off the doc lock).
		authors = strings.Split(s, ",")
		sort.Strings(authors)
	}
	return DocInfo{
		ID:         util.ID(row[0].(int64)),
		Name:       row[1].(string),
		Creator:    row[2].(string),
		Created:    row[3].(time.Time),
		Modified:   row[4].(time.Time),
		LastAuthor: row[5].(string),
		Size:       int(row[6].(int64)),
		State:      row[7].(string),
		Authors:    authors,
	}
}

// ScanCharMeta streams the metadata of every character instance in the
// store (tombstones included) until fn returns false. Lineage and mining
// build their structures from this stream without opening documents.
func (e *Engine) ScanCharMeta(fn func(doc util.ID, meta CharMeta) bool) error {
	return e.tChars.Scan(nil, func(_ db.RID, row db.Row) (bool, error) {
		ch := charFromRow(row)
		return fn(util.ID(row[1].(int64)), charMetaOf(&ch)), nil
	})
}

// CharByID resolves one character instance anywhere in the store,
// returning its document and metadata (provenance chain walking).
func (e *Engine) CharByID(id util.ID) (util.ID, CharMeta, error) {
	row, _, err := e.tChars.GetByPK(nil, int64(id))
	if errors.Is(err, db.ErrNotFound) {
		return util.NilID, CharMeta{}, fmt.Errorf("core: char %v not found", id)
	}
	if err != nil {
		return util.NilID, CharMeta{}, err
	}
	ch := charFromRow(row)
	return util.ID(row[1].(int64)), charMetaOf(&ch), nil
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

// encodeIDs packs char IDs for the ops table payload.
func encodeIDs(ids []util.ID) []byte {
	out := make([]byte, 0, len(ids)*8)
	for _, id := range ids {
		out = append(out, id.Bytes()...)
	}
	return out
}

// decodeIDs unpacks an ops payload.
func decodeIDs(b []byte) []util.ID {
	out := make([]util.ID, 0, len(b)/8)
	for len(b) >= 8 {
		out = append(out, util.IDFromBytes(b[:8]))
		b = b[8:]
	}
	return out
}
