// Package security implements TeNDaX access control: users, roles,
// sessions, and ACLs at document and character-range granularity. It plugs
// into the engine through the core.AccessChecker interface, so every
// editing transaction is vetted and reads can be masked character-exactly
// (the paper's "fine-grained security").
package security

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strings"

	"tendax/internal/awareness"
	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/txn"
	"tendax/internal/util"
)

// ErrDenied reports a failed access check.
var ErrDenied = errors.New("security: access denied")

// ErrBadCredentials reports a failed authentication.
var ErrBadCredentials = errors.New("security: bad credentials")

// ErrUserExists reports a duplicate user name.
var ErrUserExists = errors.New("security: user already exists")

// Principal spellings used in ACL rows.
const (
	Anyone     = "*"
	UserPrefix = "user:"
	RolePrefix = "role:"
)

var (
	usersSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "name", Type: db.TString},
		{Name: "pwhash", Type: db.TBytes},
		{Name: "created", Type: db.TTime},
	}
	rolesSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "user", Type: db.TString},
		{Name: "role", Type: db.TString},
	}
	aclsSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "doc", Type: db.TInt},
		{Name: "principal", Type: db.TString},
		{Name: "right", Type: db.TString},
		{Name: "startc", Type: db.TInt}, // 0 = whole document
		{Name: "endc", Type: db.TInt},
		{Name: "allow", Type: db.TBool},
	}
)

// DocRouter resolves which engine owns a document in a multi-shard
// process (see internal/placement). The store's own tables always live on
// the engine it was constructed with (the metadata shard); only per-doc
// lookups and awareness publishes route through this hook.
type DocRouter interface {
	EngineFor(doc util.ID) *core.Engine
}

// Store is the security subsystem over the shared database.
type Store struct {
	eng    *core.Engine
	router DocRouter // nil = single engine (s.eng)
	tUsers *db.Table
	tRoles *db.Table
	tACLs  *db.Table
}

// SetRouter installs the document→engine resolver for multi-shard
// processes. Without it every document is assumed to live on the store's
// own engine (the pre-sharding behavior).
func (s *Store) SetRouter(r DocRouter) { s.router = r }

// docEngine returns the engine owning doc.
func (s *Store) docEngine(doc util.ID) *core.Engine {
	if s.router == nil {
		return s.eng
	}
	return s.router.EngineFor(doc)
}

// NewStore opens the security tables and returns the store. Install it on
// the engine with engine.SetAccessChecker(store).
func NewStore(eng *core.Engine) (*Store, error) {
	s := &Store{eng: eng}
	var err error
	if s.tUsers, err = eng.DB().CreateTable("sec_users", usersSchema, "name"); err != nil {
		return nil, err
	}
	if s.tRoles, err = eng.DB().CreateTable("sec_roles", rolesSchema, "user"); err != nil {
		return nil, err
	}
	if s.tACLs, err = eng.DB().CreateTable("sec_acls", aclsSchema, "doc"); err != nil {
		return nil, err
	}
	return s, nil
}

func hashPassword(pw string) []byte {
	h := sha256.Sum256([]byte("tendax:" + pw))
	return h[:]
}

// CreateUser registers a user with a password and initial roles.
func (s *Store) CreateUser(name, password string, roles ...string) error {
	existing, err := s.tUsers.LookupEq("name", name)
	if err != nil {
		return err
	}
	if len(existing) > 0 {
		return fmt.Errorf("%w: %s", ErrUserExists, name)
	}
	id := s.eng.NewID()
	now := s.eng.Clock().Now()
	err = s.withTxn(func(tx *txn.Txn) error {
		if _, err := s.tUsers.Insert(tx, db.Row{int64(id), name, hashPassword(password), now}); err != nil {
			return err
		}
		for _, r := range roles {
			rid := s.eng.NewID()
			if _, err := s.tRoles.Insert(tx, db.Row{int64(rid), name, r}); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// Authenticate verifies name/password and returns nil on success.
func (s *Store) Authenticate(name, password string) error {
	rids, err := s.tUsers.LookupEq("name", name)
	if err != nil {
		return err
	}
	if len(rids) == 0 {
		return ErrBadCredentials
	}
	row, err := s.tUsers.Get(nil, rids[0])
	if err != nil {
		return err
	}
	want := row[2].([]byte)
	got := hashPassword(password)
	if len(want) != len(got) {
		return ErrBadCredentials
	}
	var diff byte
	for i := range want {
		diff |= want[i] ^ got[i]
	}
	if diff != 0 {
		return ErrBadCredentials
	}
	return nil
}

// AssignRole adds a role to a user.
//
//tendax:allow-testonly paper capability with no wire or CLI caller yet: security ACL administration (the redaction item's (c) decides its wire op)
func (s *Store) AssignRole(user, role string) error {
	roles, err := s.RolesOf(user)
	if err != nil {
		return err
	}
	for _, r := range roles {
		if r == role {
			return nil
		}
	}
	id := s.eng.NewID()
	return s.withTxn(func(tx *txn.Txn) error {
		_, err := s.tRoles.Insert(tx, db.Row{int64(id), user, role})
		return err
	})
}

// RolesOf returns the roles assigned to user, sorted.
func (s *Store) RolesOf(user string) ([]string, error) {
	rids, err := s.tRoles.LookupEq("user", user)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(rids))
	for _, rid := range rids {
		row, err := s.tRoles.Get(nil, rid)
		if err != nil {
			continue
		}
		out = append(out, row[2].(string))
	}
	sort.Strings(out)
	return out, nil
}

// usersInRole returns the users holding role, sorted.
func (s *Store) usersInRole(role string) ([]string, error) {
	var out []string
	err := s.tRoles.Scan(nil, func(_ db.RID, row db.Row) (bool, error) {
		if row[2].(string) == role {
			out = append(out, row[1].(string))
		}
		return true, nil
	})
	sort.Strings(out)
	return out, err
}

// ACL is one access rule.
type ACL struct {
	ID        util.ID
	Doc       util.ID
	Principal string // "user:name", "role:name" or "*"
	Right     core.Right
	Start     util.ID // char range; NilID = whole document
	End       util.ID
	Allow     bool
}

// Grant adds a document-level allow rule. granter must hold RGrant on the
// document (or be its creator).
//
//tendax:allow-testonly paper capability with no wire or CLI caller yet: security ACL administration (the redaction item's (c) decides its wire op)
func (s *Store) Grant(granter string, doc util.ID, principal string, right core.Right) (util.ID, error) {
	return s.addACL(granter, ACL{Doc: doc, Principal: principal, Right: right, Allow: true})
}

// Deny adds a document-level deny rule (deny overrides allow).
//
//tendax:allow-testonly paper capability with no wire or CLI caller yet: security ACL administration (the redaction item's (c) decides its wire op)
func (s *Store) Deny(granter string, doc util.ID, principal string, right core.Right) (util.ID, error) {
	return s.addACL(granter, ACL{Doc: doc, Principal: principal, Right: right, Allow: false})
}

// DenyRange hides the character range [start, end] (chain anchors) from
// principal for the given right — the paper's character-level security.
//
//tendax:allow-testonly paper capability with no wire or CLI caller yet: security ACL administration (the redaction item's (c) decides its wire op)
func (s *Store) DenyRange(granter string, doc util.ID, principal string, right core.Right, start, end util.ID) (util.ID, error) {
	return s.addACL(granter, ACL{Doc: doc, Principal: principal, Right: right,
		Start: start, End: end, Allow: false})
}

func (s *Store) addACL(granter string, acl ACL) (util.ID, error) {
	if err := s.checkGranter(granter, acl.Doc); err != nil {
		return util.NilID, err
	}
	id := s.eng.NewID()
	err := s.withTxn(func(tx *txn.Txn) error {
		_, err := s.tACLs.Insert(tx, db.Row{
			int64(id), int64(acl.Doc), acl.Principal, string(acl.Right),
			int64(acl.Start), int64(acl.End), acl.Allow,
		})
		return err
	})
	if err != nil {
		return util.NilID, err
	}
	// Publish on the owning shard's bus: that is where the document's
	// subscribers (and their redactors) listen.
	s.docEngine(acl.Doc).Bus().Publish(awareness.Event{
		Doc: acl.Doc, Kind: awareness.EvSecurity, User: granter,
		Name: fmt.Sprintf("%s %s %s", verb(acl.Allow), acl.Right, acl.Principal),
		At:   s.eng.Clock().Now(),
	})
	return id, nil
}

func verb(allow bool) string {
	if allow {
		return "grant"
	}
	return "deny"
}

// Revoke removes an ACL rule.
//
//tendax:allow-testonly paper capability with no wire or CLI caller yet: security ACL administration (the redaction item's (c) decides its wire op)
func (s *Store) Revoke(granter string, aclID util.ID) error {
	row, _, err := s.tACLs.GetByPK(nil, int64(aclID))
	if err != nil {
		return err
	}
	doc := util.ID(row[1].(int64))
	if err := s.checkGranter(granter, doc); err != nil {
		return err
	}
	err = s.withTxn(func(tx *txn.Txn) error {
		return s.tACLs.DeleteByPK(tx, int64(aclID))
	})
	if err != nil {
		return err
	}
	// Removing a rule changes who may see what just as much as adding one:
	// the EvSecurity event is what makes live subscriber redactors rebuild.
	s.docEngine(doc).Bus().Publish(awareness.Event{
		Doc: doc, Kind: awareness.EvSecurity, User: granter,
		Name: fmt.Sprintf("revoke %s %s", row[3].(string), row[2].(string)),
		At:   s.eng.Clock().Now(),
	})
	return nil
}

// ACLs returns the rules of a document.
func (s *Store) ACLs(doc util.ID) ([]ACL, error) {
	rids, err := s.tACLs.LookupEq("doc", int64(doc))
	if err != nil {
		return nil, err
	}
	out := make([]ACL, 0, len(rids))
	for _, rid := range rids {
		row, err := s.tACLs.Get(nil, rid)
		if err != nil {
			continue
		}
		out = append(out, ACL{
			ID:        util.ID(row[0].(int64)),
			Doc:       util.ID(row[1].(int64)),
			Principal: row[2].(string),
			Right:     core.Right(row[3].(string)),
			Start:     util.ID(row[4].(int64)),
			End:       util.ID(row[5].(int64)),
			Allow:     row[6].(bool),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// checkGranter allows the document creator and principals holding an
// explicit RGrant allow rule. Unlike read/write, administration is never
// open by default.
func (s *Store) checkGranter(granter string, doc util.ID) error {
	info, err := s.docEngine(doc).DocInfoByID(doc)
	if err != nil {
		return err
	}
	if info.Creator == granter || info.Creator == "" {
		return nil
	}
	acls, err := s.ACLs(doc)
	if err != nil {
		return err
	}
	principals := s.principalsOf(granter)
	for _, a := range acls {
		if a.Right == core.RGrant && a.Allow && principals[a.Principal] {
			return nil
		}
	}
	return fmt.Errorf("%w: %s may not administer doc %v", ErrDenied, granter, doc)
}

// principalsOf returns the ACL principals that match user.
func (s *Store) principalsOf(user string) map[string]bool {
	p := map[string]bool{Anyone: true, UserPrefix + user: true}
	if roles, err := s.RolesOf(user); err == nil {
		for _, r := range roles {
			p[RolePrefix+r] = true
		}
	}
	return p
}

// Check implements core.AccessChecker. Policy: the creator always has full
// access; a document without whole-document rules for a right is open for
// it; once rules exist, a matching deny wins over a matching allow, and a
// non-match is a deny.
func (s *Store) Check(user string, doc util.ID, right core.Right) error {
	info, err := s.docEngine(doc).DocInfoByID(doc)
	if err != nil {
		return err
	}
	if info.Creator == user || info.Creator == "" {
		return nil
	}
	acls, err := s.ACLs(doc)
	if err != nil {
		return err
	}
	principals := s.principalsOf(user)
	anyRuleForRight := false
	allowed := false
	for _, a := range acls {
		if a.Right != right || !a.Start.IsNil() { // range rules only mask reads
			continue
		}
		anyRuleForRight = true
		if !principals[a.Principal] {
			continue
		}
		if !a.Allow {
			return fmt.Errorf("%w: %s denied %s on doc %v", ErrDenied, user, right, doc)
		}
		allowed = true
	}
	if !anyRuleForRight {
		return nil // open until configured
	}
	if !allowed {
		return fmt.Errorf("%w: %s lacks %s on doc %v", ErrDenied, user, right, doc)
	}
	return nil
}

// ReadableMask implements core.AccessChecker: per-character read masking
// from range deny rules. ids are the document's visible characters in
// order; the mask is computed positionally between the range anchors. A
// missing start anchor masks from the beginning, a missing end anchor masks
// to the end (fail closed).
func (s *Store) ReadableMask(user string, doc util.ID, ids []util.ID) []bool {
	acls, err := s.ACLs(doc)
	if err != nil {
		return nil
	}
	info, err := s.docEngine(doc).DocInfoByID(doc)
	if err == nil && info.Creator == user {
		return nil // creator reads everything
	}
	principals := s.principalsOf(user)
	var mask []bool
	for _, a := range acls {
		if a.Allow || a.Right != core.RRead || a.Start.IsNil() {
			continue
		}
		if !principals[a.Principal] {
			continue
		}
		if mask == nil {
			mask = make([]bool, len(ids))
			for i := range mask {
				mask[i] = true
			}
		}
		startIdx, endIdx := -1, -1
		for i, id := range ids {
			if id == a.Start {
				startIdx = i
			}
			if id == a.End {
				endIdx = i
			}
		}
		if startIdx == -1 {
			startIdx = 0
		}
		if endIdx == -1 {
			endIdx = len(ids) - 1
		}
		for i := startIdx; i <= endIdx && i < len(ids); i++ {
			mask[i] = false
		}
	}
	return mask
}

// DeniedVisibility is the fail-closed ReadVisibility fingerprint: the
// user may see nothing of the document's character stream — either
// doc-level read access is denied outright or the ACL table could not be
// read. Every event is fully masked for this class.
const DeniedVisibility uint64 = 1

// ReadVisibility classifies what user may see of doc's character stream:
// 0 means the user is subject to no range deny-read rule (the common case
// — full visibility), DeniedVisibility means the user may see nothing at
// all (doc-level deny-read, which range-rule fingerprinting alone would
// miss), and any other value is a fingerprint of the exact set of range
// rules that apply to the user. Two users with the same class see the
// same redaction of every event, which is what lets the server share one
// encoded wire frame per (protocol family, class) instead of re-encoding
// per subscriber. The class changes when the document's ACLs change (an
// EvSecurity event marks the moment).
func (s *Store) ReadVisibility(user string, doc util.ID) uint64 {
	info, err := s.docEngine(doc).DocInfoByID(doc)
	if err == nil && info.Creator == user {
		return 0 // creator reads everything
	}
	if s.Check(user, doc, core.RRead) != nil {
		// Whole-document deny: a subscriber whose doc-level read access
		// was revoked mid-subscription must not keep the unredacted
		// stream (or any partially-masked one).
		return DeniedVisibility
	}
	acls, err := s.ACLs(doc)
	if err != nil {
		// Fail closed: an unreadable ACL table must not alias the
		// all-visible class.
		return DeniedVisibility
	}
	principals := s.principalsOf(user)
	h := uint64(14695981039346656037) // FNV-1a offset basis
	applied := false
	for _, a := range acls {
		if a.Allow || a.Right != core.RRead || a.Start.IsNil() {
			continue
		}
		if !principals[a.Principal] {
			continue
		}
		applied = true
		for _, v := range []uint64{uint64(a.ID), uint64(a.Start), uint64(a.End)} {
			for i := 0; i < 8; i++ {
				h ^= (v >> (8 * i)) & 0xff
				h *= 1099511628211
			}
		}
	}
	if !applied {
		return 0
	}
	if h == 0 || h == DeniedVisibility {
		h = 2 // 0 and 1 are reserved (all-visible, denied); a collision
		//      only moves the user to another restricted class
	}
	return h
}

// withTxn mirrors the engine's deadlock-retrying transaction wrapper.
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

var _ core.AccessChecker = (*Store)(nil)

// splitPrincipal parses a principal spelling into kind and name.
func splitPrincipal(p string) (kind, name string) {
	switch {
	case p == Anyone:
		return "anyone", ""
	case strings.HasPrefix(p, UserPrefix):
		return "user", strings.TrimPrefix(p, UserPrefix)
	case strings.HasPrefix(p, RolePrefix):
		return "role", strings.TrimPrefix(p, RolePrefix)
	default:
		return "user", p
	}
}
