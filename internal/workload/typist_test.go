package workload

import (
	"fmt"

	"tendax/internal/core"
	"tendax/internal/util"
)

// Typist simulates one user's keystroke stream on a document: mostly
// inserts at a wandering cursor, some deletions, in natural-language-shaped
// bursts.
type Typist struct {
	User        string
	rng         *util.Rand
	DeleteRatio float64 // fraction of ops that delete (default 0.15)
	BurstLen    int     // characters per insert burst (default 8)
}

// newTypist returns a deterministic typist.
func newTypist(user string, seed uint64) *Typist {
	return &Typist{User: user, rng: util.NewRand(seed), DeleteRatio: 0.15, BurstLen: 8}
}

// Step performs one editing operation on doc and reports what it did.
func (t *Typist) Step(doc *core.Document) (kind string, err error) {
	n := doc.Len()
	if n > 0 && t.rng.Float64() < t.DeleteRatio {
		pos := t.rng.Intn(n)
		del := 1 + t.rng.Intn(3)
		if pos+del > n {
			del = n - pos
		}
		if del > 0 {
			_, err = doc.DeleteRange(t.User, pos, del)
			return "delete", err
		}
	}
	pos := 0
	if n > 0 {
		pos = t.rng.Intn(n + 1)
	}
	burst := 1 + t.rng.Intn(t.BurstLen)
	_, err = doc.InsertText(t.User, pos, t.rng.Letters(burst))
	return "insert", err
}

// run performs steps operations.
func (t *Typist) run(doc *core.Document, steps int) error {
	for i := 0; i < steps; i++ {
		if _, err := t.Step(doc); err != nil {
			return fmt.Errorf("workload: %s step %d: %w", t.User, i, err)
		}
	}
	return nil
}
