package main

import (
	"strings"

	"tendax/internal/core"
	"tendax/internal/util"
)

// gen turns the seed into everything the server is fed: document text,
// the keys each author types, positions and the order of mixed ops. It is
// the only source of randomness in a run.
type gen struct {
	rng   *util.Rand
	vocab []string
}

func newGen(seed uint64) *gen {
	g := &gen{rng: util.NewRand(seed)}
	// A closed vocabulary, so the search index has postings that repeat
	// across documents and a query for one of its words finds something.
	g.vocab = make([]string, 512)
	for i := range g.vocab {
		w := make([]byte, 2+g.rng.Intn(8))
		for j := range w {
			w[j] = byte('a' + g.rng.Intn(26))
		}
		g.vocab[i] = string(w)
	}
	return g
}

// split derives an independent generator over the same vocabulary, one per
// driver goroutine, so what an author does never depends on how the two
// goroutines interleave.
func (g *gen) split() *gen { return &gen{rng: g.rng.Split(), vocab: g.vocab} }

func (g *gen) word() string { return g.vocab[g.rng.Intn(len(g.vocab))] }

// text returns exactly n characters of space-separated vocabulary words.
func (g *gen) text(n int) string {
	var sb strings.Builder
	sb.Grow(n + 16)
	for sb.Len() < n {
		sb.WriteString(g.word())
		sb.WriteByte(' ')
	}
	return sb.String()[:n]
}

// buildDocument brings d to visible characters plus deleted tombstones the
// way a document gets there: paragraphs inserted at random positions,
// then ranges deleted out of it.
func buildDocument(d *core.Document, g *gen, visible, deleted int) error {
	const user, paragraph, cut = "import", 500, 200
	for left := visible + deleted; left > 0; {
		k := paragraph
		if left < k {
			k = left
		}
		if _, err := d.InsertText(user, g.rng.Intn(d.Len()+1), g.text(k)); err != nil {
			return err
		}
		left -= k
	}
	for left := deleted; left > 0; {
		k := cut
		if left < k {
			k = left
		}
		if _, err := d.DeleteRange(user, g.rng.Intn(d.Len()-k+1), k); err != nil {
			return err
		}
		left -= k
	}
	return nil
}

// mixedOp is one operation of the mixed phase. at places it in the
// document as a share of the replica's length when the op runs.
type mixedOp struct {
	kind byte // e jump edit, d delete, j late join, r read, s search
	at   float64
	word string // typed by a jump edit (5 letters and a space), or the search term
}

// mixedOps returns n ops in the fixed mix 50 % jump edits, 20 % deletes,
// 10 % late joins, 10 % reads, 10 % searches. The shares are exact (a
// shuffled multiset, not a draw per op), so every run does the same work.
func (g *gen) mixedOps(n int) []mixedOp {
	const mix = "edejeredes"
	ops := make([]mixedOp, n)
	for i := range ops {
		j := i
		op := mixedOp{kind: mix[i%len(mix)], at: g.rng.Float64()}
		switch op.kind {
		case 'e':
			op.word = g.text(5) + " "
		case 's':
			op.word = g.word()
		}
		ops[j] = op
	}
	return ops
}
