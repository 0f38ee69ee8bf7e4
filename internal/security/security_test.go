package security

import (
	"errors"
	"testing"
	"time"

	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/util"
)

func fixture(t *testing.T) (*core.Engine, *Store) {
	t.Helper()
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { database.Close() })
	eng, err := core.NewEngine(database, util.NewFakeClock(time.Unix(1_000_000, 0).UTC(), time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(eng)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetAccessChecker(store)
	return eng, store
}

func TestCreateUserAndAuthenticate(t *testing.T) {
	_, s := fixture(t)
	if err := s.CreateUser("alice", "secret", "editor"); err != nil {
		t.Fatal(err)
	}
	if err := s.Authenticate("alice", "secret"); err != nil {
		t.Fatal(err)
	}
	if err := s.Authenticate("alice", "wrong"); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("wrong password: %v", err)
	}
	if err := s.Authenticate("nobody", "x"); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("unknown user: %v", err)
	}
	if err := s.CreateUser("alice", "other"); !errors.Is(err, ErrUserExists) {
		t.Fatalf("duplicate user: %v", err)
	}
}

func TestRoles(t *testing.T) {
	_, s := fixture(t)
	s.CreateUser("bob", "pw", "translator", "reviewer")
	roles, err := s.RolesOf("bob")
	if err != nil || len(roles) != 2 {
		t.Fatalf("RolesOf = %v, %v", roles, err)
	}
	if err := s.AssignRole("bob", "translator"); err != nil { // idempotent
		t.Fatal(err)
	}
	roles, _ = s.RolesOf("bob")
	if len(roles) != 2 {
		t.Fatal("duplicate role assigned")
	}
	users, err := s.UsersInRole("reviewer")
	if err != nil || len(users) != 1 || users[0] != "bob" {
		t.Fatalf("UsersInRole = %v, %v", users, err)
	}
}

func TestDocLevelACLs(t *testing.T) {
	eng, s := fixture(t)
	s.CreateUser("owner", "pw")
	s.CreateUser("reader", "pw")
	s.CreateUser("stranger", "pw")
	d, err := eng.CreateDocument("owner", "private")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("owner", 0, "classified"); err != nil {
		t.Fatal(err)
	}

	// Open until configured: anyone may write.
	if _, err := d.InsertText("stranger", 0, "x"); err != nil {
		t.Fatalf("pre-ACL write blocked: %v", err)
	}
	d.DeleteRange("owner", 0, 1)

	// Grant write to reader only: now stranger is locked out.
	if _, err := s.Grant("owner", d.ID(), UserPrefix+"reader", core.RWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("stranger", 0, "x"); err == nil {
		t.Fatal("stranger wrote despite ACL")
	}
	if _, err := d.InsertText("reader", 0, "> "); err != nil {
		t.Fatalf("granted reader blocked: %v", err)
	}
	if _, err := d.InsertText("owner", 0, "!"); err != nil {
		t.Fatalf("creator blocked: %v", err)
	}
}

func TestDenyOverridesAllow(t *testing.T) {
	eng, s := fixture(t)
	s.CreateUser("owner", "pw")
	s.CreateUser("eve", "pw", "staff")
	d, _ := eng.CreateDocument("owner", "doc")
	d.InsertText("owner", 0, "text")
	s.Grant("owner", d.ID(), RolePrefix+"staff", core.RWrite)
	s.Deny("owner", d.ID(), UserPrefix+"eve", core.RWrite)
	if _, err := d.InsertText("eve", 0, "x"); err == nil {
		t.Fatal("deny did not override role allow")
	}
}

func TestRangeMaskHidesCharacters(t *testing.T) {
	eng, s := fixture(t)
	s.CreateUser("owner", "pw")
	s.CreateUser("viewer", "pw")
	d, _ := eng.CreateDocument("owner", "partially-secret")
	d.InsertText("owner", 0, "public SECRET public")

	metas, err := d.RangeMeta(7, 6) // "SECRET"
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DenyRange("owner", d.ID(), UserPrefix+"viewer", core.RRead,
		metas[0].ID, metas[len(metas)-1].ID); err != nil {
		t.Fatal(err)
	}

	got, err := d.Snapshot().MaskedTextFor("viewer", '*')
	if err != nil {
		t.Fatal(err)
	}
	// Each denied rune is masked in place; no rune of "SECRET" appears.
	if got != "public ****** public" {
		t.Fatalf("masked text = %q, want %q", got, "public ****** public")
	}
	// The owner still sees everything.
	full, err := d.Snapshot().MaskedTextFor("owner", '*')
	if err != nil || full != "public SECRET public" {
		t.Fatalf("owner text = %q, %v", full, err)
	}
}

func TestRevoke(t *testing.T) {
	eng, s := fixture(t)
	s.CreateUser("owner", "pw")
	s.CreateUser("bob", "pw")
	d, _ := eng.CreateDocument("owner", "doc")
	d.InsertText("owner", 0, "x")
	aclID, _ := s.Grant("owner", d.ID(), UserPrefix+"bob", core.RWrite)
	if _, err := d.InsertText("bob", 0, "y"); err != nil {
		t.Fatal(err)
	}
	if err := s.Revoke("owner", aclID); err != nil {
		t.Fatal(err)
	}
	acls, _ := s.ACLs(d.ID())
	if len(acls) != 0 {
		t.Fatal("ACL survived revoke")
	}
}

func TestGranterMustBeAuthorized(t *testing.T) {
	eng, s := fixture(t)
	s.CreateUser("owner", "pw")
	s.CreateUser("mallory", "pw")
	d, _ := eng.CreateDocument("owner", "doc")
	if _, err := s.Grant("mallory", d.ID(), Anyone, core.RWrite); !errors.Is(err, ErrDenied) {
		t.Fatalf("unauthorized grant: %v", err)
	}
	// Delegating grant rights works.
	if _, err := s.Grant("owner", d.ID(), UserPrefix+"mallory", core.RGrant); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Grant("mallory", d.ID(), Anyone, core.RRead); err != nil {
		t.Fatalf("delegated grant failed: %v", err)
	}
}

func TestSessions(t *testing.T) {
	_, s := fixture(t)
	s.CreateUser("alice", "pw")
	sess, err := s.NewSession("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if sess.User != "alice" || len(sess.Token) != 32 {
		t.Fatalf("session = %+v", sess)
	}
	sess2, _ := s.NewSession("alice", "pw")
	if sess.Token == sess2.Token {
		t.Fatal("session tokens collide")
	}
	if _, err := s.NewSession("alice", "bad"); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("bad login minted session: %v", err)
	}
}

func TestSplitPrincipal(t *testing.T) {
	cases := []struct{ in, kind, name string }{
		{"*", "anyone", ""},
		{"user:alice", "user", "alice"},
		{"role:editor", "role", "editor"},
		{"plain", "user", "plain"},
	}
	for _, c := range cases {
		k, n := SplitPrincipal(c.in)
		if k != c.kind || n != c.name {
			t.Fatalf("SplitPrincipal(%q) = %q,%q", c.in, k, n)
		}
	}
}
