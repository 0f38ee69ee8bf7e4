package security

import (
	"crypto/sha256"
	"fmt"
	"time"
)

// Session is an authenticated user session.
type Session struct {
	Token   string
	User    string
	Started time.Time
}

// newSession authenticates and mints a session token.
func (s *Store) newSession(name, password string) (Session, error) {
	if err := s.Authenticate(name, password); err != nil {
		return Session{}, err
	}
	now := s.eng.Clock().Now()
	tok := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%v", name, now.UnixNano(), s.eng.NewID()))))
	return Session{Token: tok[:32], User: name, Started: now}, nil
}
