package folders

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/txn"
	"tendax/internal/util"
)

// DynamicFolder is a stored virtual folder: a named predicate whose content
// is evaluated freshly from metadata on every listing.
type DynamicFolder struct {
	ID    util.ID
	Name  string
	Owner string
	Pred  Predicate
}

// StaticFolder is a conventional named container documents are placed in
// explicitly (the paper's "places within static folders" metadata).
type StaticFolder struct {
	ID     util.ID
	Name   string
	Owner  string
	Parent util.ID // NilID for a root folder
}

// ErrFolderNotFound reports an unknown folder.
var ErrFolderNotFound = errors.New("folders: folder not found")

var (
	dynSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "name", Type: db.TString},
		{Name: "owner", Type: db.TString},
		{Name: "expr", Type: db.TString},
	}
	statSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "name", Type: db.TString},
		{Name: "owner", Type: db.TString},
		{Name: "parent", Type: db.TInt},
	}
	memberSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "folder", Type: db.TInt},
		{Name: "doc", Type: db.TInt},
	}
)

// Store is the folders subsystem over the shared database.
type Store struct {
	eng      *core.Engine
	tDyn     *db.Table
	tStatic  *db.Table
	tMembers *db.Table
}

// NewStore opens the folders tables.
func NewStore(eng *core.Engine) (*Store, error) {
	s := &Store{eng: eng}
	var err error
	if s.tDyn, err = eng.DB().CreateTable("fold_dynamic", dynSchema, "owner"); err != nil {
		return nil, err
	}
	if s.tStatic, err = eng.DB().CreateTable("fold_static", statSchema, "owner"); err != nil {
		return nil, err
	}
	if s.tMembers, err = eng.DB().CreateTable("fold_members", memberSchema, "folder", "doc"); err != nil {
		return nil, err
	}
	return s, nil
}

// CreateDynamic stores a dynamic folder.
func (s *Store) CreateDynamic(owner, name string, pred Predicate) (DynamicFolder, error) {
	id := s.eng.NewID()
	err := s.withTxn(func(tx *txn.Txn) error {
		_, err := s.tDyn.Insert(tx, db.Row{int64(id), name, owner, pred.Expr()})
		return err
	})
	if err != nil {
		return DynamicFolder{}, err
	}
	return DynamicFolder{ID: id, Name: name, Owner: owner, Pred: pred}, nil
}

// DynamicFolders lists a user's dynamic folders.
//
//tendax:allow-testonly paper capability with no wire or CLI caller yet: folders (static folders and their members, stored dynamic folders)
func (s *Store) DynamicFolders(owner string) ([]DynamicFolder, error) {
	rids, err := s.tDyn.LookupEq("owner", owner)
	if err != nil {
		return nil, err
	}
	out := make([]DynamicFolder, 0, len(rids))
	for _, rid := range rids {
		row, err := s.tDyn.Get(nil, rid)
		if err != nil {
			continue
		}
		pred, err := Parse(row[3].(string))
		if err != nil {
			return nil, fmt.Errorf("folders: stored expr of %q: %w", row[1].(string), err)
		}
		out = append(out, DynamicFolder{
			ID: util.ID(row[0].(int64)), Name: row[1].(string),
			Owner: row[2].(string), Pred: pred,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Eval returns the folder's current content: every document whose metadata
// satisfies the predicate right now. Content is fluent — it may change
// within seconds as other users edit (the paper's defining property).
func (s *Store) Eval(f DynamicFolder) ([]core.DocInfo, error) {
	docs, err := s.eng.ListDocuments()
	if err != nil {
		return nil, err
	}
	ctx := s.evalCtx()
	var out []core.DocInfo
	for _, doc := range docs {
		if f.Pred.Match(ctx, doc) {
			out = append(out, doc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// EvalPredicate evaluates an ad-hoc predicate without storing a folder.
func (s *Store) EvalPredicate(pred Predicate) ([]core.DocInfo, error) {
	return s.Eval(DynamicFolder{Pred: pred})
}

// evalCtx builds the evaluation context with memoised metadata lookups.
func (s *Store) evalCtx() *EvalCtx {
	readCache := map[string][]core.ReadEvent{}
	propCache := map[util.ID]map[string]string{}
	return &EvalCtx{
		Now: s.eng.Clock().Now(),
		Reads: func(user string) []core.ReadEvent {
			if evs, ok := readCache[user]; ok {
				return evs
			}
			evs, err := s.eng.ReadsByUser(user)
			if err != nil {
				evs = nil
			}
			readCache[user] = evs
			return evs
		},
		Props: func(doc core.DocInfo) map[string]string {
			if p, ok := propCache[doc.ID]; ok {
				return p
			}
			d, err := s.eng.OpenDocument(doc.ID)
			if err != nil {
				return nil
			}
			p, err := d.Properties()
			if err != nil {
				p = nil
			}
			propCache[doc.ID] = p
			return p
		},
	}
}

// CreateStatic creates a static folder (parent NilID = root).
//
//tendax:allow-testonly paper capability with no wire or CLI caller yet: folders (static folders and their members, stored dynamic folders)
func (s *Store) CreateStatic(owner, name string, parent util.ID) (StaticFolder, error) {
	id := s.eng.NewID()
	err := s.withTxn(func(tx *txn.Txn) error {
		_, err := s.tStatic.Insert(tx, db.Row{int64(id), name, owner, int64(parent)})
		return err
	})
	if err != nil {
		return StaticFolder{}, err
	}
	return StaticFolder{ID: id, Name: name, Owner: owner, Parent: parent}, nil
}

// Place puts a document into a static folder (a document may be in several
// folders at once — folders are metadata, not containers).
//
//tendax:allow-testonly paper capability with no wire or CLI caller yet: folders (static folders and their members, stored dynamic folders)
func (s *Store) Place(folder, doc util.ID) error {
	if _, _, err := s.tStatic.GetByPK(nil, int64(folder)); err != nil {
		return ErrFolderNotFound
	}
	existing, err := s.tMembers.LookupEq("folder", int64(folder))
	if err != nil {
		return err
	}
	for _, rid := range existing {
		row, err := s.tMembers.Get(nil, rid)
		if err == nil && util.ID(row[2].(int64)) == doc {
			return nil
		}
	}
	id := s.eng.NewID()
	return s.withTxn(func(tx *txn.Txn) error {
		_, err := s.tMembers.Insert(tx, db.Row{int64(id), int64(folder), int64(doc)})
		return err
	})
}

// Remove takes a document out of a static folder.
//
//tendax:allow-testonly paper capability with no wire or CLI caller yet: folders (static folders and their members, stored dynamic folders)
func (s *Store) Remove(folder, doc util.ID) error {
	rids, err := s.tMembers.LookupEq("folder", int64(folder))
	if err != nil {
		return err
	}
	for _, rid := range rids {
		row, err := s.tMembers.Get(nil, rid)
		if err != nil {
			continue
		}
		if util.ID(row[2].(int64)) == doc {
			r := rid
			return s.withTxn(func(tx *txn.Txn) error {
				return s.tMembers.Delete(tx, r)
			})
		}
	}
	return nil
}

// Contents lists the documents placed in a static folder.
//
//tendax:allow-testonly paper capability with no wire or CLI caller yet: folders (static folders and their members, stored dynamic folders)
func (s *Store) Contents(folder util.ID) ([]core.DocInfo, error) {
	rids, err := s.tMembers.LookupEq("folder", int64(folder))
	if err != nil {
		return nil, err
	}
	var out []core.DocInfo
	for _, rid := range rids {
		row, err := s.tMembers.Get(nil, rid)
		if err != nil {
			continue
		}
		info, err := s.eng.DocInfoByID(util.ID(row[2].(int64)))
		if err != nil {
			continue
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// FoldersOf lists the static folders containing a document.
//
//tendax:allow-testonly paper capability with no wire or CLI caller yet: folders (static folders and their members, stored dynamic folders)
func (s *Store) FoldersOf(doc util.ID) ([]StaticFolder, error) {
	rids, err := s.tMembers.LookupEq("doc", int64(doc))
	if err != nil {
		return nil, err
	}
	var out []StaticFolder
	for _, rid := range rids {
		row, err := s.tMembers.Get(nil, rid)
		if err != nil {
			continue
		}
		frow, _, err := s.tStatic.GetByPK(nil, row[1].(int64))
		if err != nil {
			continue
		}
		out = append(out, StaticFolder{
			ID: util.ID(frow[0].(int64)), Name: frow[1].(string),
			Owner: frow[2].(string), Parent: util.ID(frow[3].(int64)),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func (s *Store) withTxn(fn func(tx *txn.Txn) error) error {
	const retries = 8
	for attempt := 0; ; attempt++ {
		tx, err := s.eng.DB().Begin()
		if err != nil {
			return err
		}
		err = fn(tx)
		if err == nil {
			return tx.Commit()
		}
		_ = tx.Abort()
		if !errors.Is(err, txn.ErrDeadlock) || attempt >= retries {
			return err
		}
	}
}

// Freshness measures how quickly a dynamic folder reflects a change: it
// evaluates the folder, applies mutate, re-evaluates, and returns the two
// contents plus the wall time of the second evaluation (experiment E5).
func (s *Store) Freshness(f DynamicFolder, mutate func() error) (before, after []core.DocInfo, evalTime time.Duration, err error) {
	before, err = s.Eval(f)
	if err != nil {
		return nil, nil, 0, err
	}
	if err = mutate(); err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	after, err = s.Eval(f)
	evalTime = time.Since(start)
	return before, after, evalTime, err
}
