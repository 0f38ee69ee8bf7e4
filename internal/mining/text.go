package mining

import (
	"math"
	"sort"
	"strings"
	"unicode"

	"tendax/internal/core"
	"tendax/internal/util"
)

// IsTokenRune reports whether r is part of a token: tokens are maximal runs
// of letters and digits. The search index widens an edited region to the
// nearest runes for which this is false before re-tokenizing it.
func IsTokenRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

// Tokenize lowercases text and splits it into letter/digit runs, the token
// stream used by both text mining and the search index.
func Tokenize(text string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range text {
		if IsTokenRune(r) {
			cur.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return out
}

// TermStats holds one document's term frequencies.
type TermStats struct {
	Doc    util.ID
	Name   string
	Terms  map[string]int
	Length int // total tokens
}

// Corpus is the text-mining view over all documents: term frequencies and
// document frequencies for TF-IDF weighting.
type Corpus struct {
	Docs []TermStats
	DF   map[string]int // documents containing each term
}

// BuildCorpus tokenizes every document in the engine.
func BuildCorpus(eng *core.Engine) (*Corpus, error) {
	infos, err := eng.ListDocuments()
	if err != nil {
		return nil, err
	}
	c := &Corpus{DF: make(map[string]int)}
	for _, info := range infos {
		d, err := eng.OpenDocument(info.ID)
		if err != nil {
			return nil, err
		}
		toks := Tokenize(d.Text())
		ts := TermStats{Doc: info.ID, Name: info.Name, Terms: make(map[string]int), Length: len(toks)}
		for _, t := range toks {
			ts.Terms[t]++
		}
		for t := range ts.Terms {
			c.DF[t]++
		}
		c.Docs = append(c.Docs, ts)
	}
	return c, nil
}

// TFIDF returns the weight of term in the given document stats.
func (c *Corpus) TFIDF(ts TermStats, term string) float64 {
	tf := float64(ts.Terms[term])
	if tf == 0 || ts.Length == 0 {
		return 0
	}
	df := float64(c.DF[term])
	if df == 0 {
		return 0
	}
	idf := math.Log(float64(len(c.Docs)+1) / (df + 0.5))
	return (tf / float64(ts.Length)) * idf
}

// WeightedTerm pairs a term with its weight.
type WeightedTerm struct {
	Term   string
	Weight float64
}

// TopTerms returns the k highest-TF-IDF terms of a document: its
// characteristic vocabulary.
func (c *Corpus) TopTerms(doc util.ID, k int) []WeightedTerm {
	for _, ts := range c.Docs {
		if ts.Doc != doc {
			continue
		}
		out := make([]WeightedTerm, 0, len(ts.Terms))
		for t := range ts.Terms {
			out = append(out, WeightedTerm{t, c.TFIDF(ts, t)})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Weight != out[j].Weight {
				return out[i].Weight > out[j].Weight
			}
			return out[i].Term < out[j].Term
		})
		if len(out) > k {
			out = out[:k]
		}
		return out
	}
	return nil
}

// Similarity returns the TF-IDF cosine similarity of two documents in
// [0, 1].
func (c *Corpus) Similarity(a, b util.ID) float64 {
	var sa, sb *TermStats
	for i := range c.Docs {
		if c.Docs[i].Doc == a {
			sa = &c.Docs[i]
		}
		if c.Docs[i].Doc == b {
			sb = &c.Docs[i]
		}
	}
	if sa == nil || sb == nil {
		return 0
	}
	var dotP, na, nb float64
	for t := range sa.Terms {
		wa := c.TFIDF(*sa, t)
		na += wa * wa
		if _, ok := sb.Terms[t]; ok {
			dotP += wa * c.TFIDF(*sb, t)
		}
	}
	for t := range sb.Terms {
		wb := c.TFIDF(*sb, t)
		nb += wb * wb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dotP / (math.Sqrt(na) * math.Sqrt(nb))
}

// MostSimilar returns the k documents most similar to doc.
func (c *Corpus) MostSimilar(doc util.ID, k int) []struct {
	Doc   util.ID
	Name  string
	Score float64
} {
	type row struct {
		Doc   util.ID
		Name  string
		Score float64
	}
	var rows []row
	for _, ts := range c.Docs {
		if ts.Doc == doc {
			continue
		}
		rows = append(rows, row{ts.Doc, ts.Name, c.Similarity(doc, ts.Doc)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Score != rows[j].Score {
			return rows[i].Score > rows[j].Score
		}
		return rows[i].Doc < rows[j].Doc
	})
	if len(rows) > k {
		rows = rows[:k]
	}
	out := make([]struct {
		Doc   util.ID
		Name  string
		Score float64
	}, len(rows))
	for i, r := range rows {
		out[i] = struct {
			Doc   util.ID
			Name  string
			Score float64
		}{r.Doc, r.Name, r.Score}
	}
	return out
}
