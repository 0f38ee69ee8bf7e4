package core

import (
	"fmt"
	"strings"

	"tendax/internal/util"
)

// DiffKind labels one diff hunk.
type DiffKind int

// Diff hunk kinds.
const (
	DiffKeep DiffKind = iota
	DiffAdd
	DiffDelete
)

func (k DiffKind) String() string {
	switch k {
	case DiffKeep:
		return " "
	case DiffAdd:
		return "+"
	case DiffDelete:
		return "-"
	default:
		return "?"
	}
}

// Hunk is one run of identical-kind lines in a diff.
type Hunk struct {
	Kind  DiffKind
	Lines []string
}

// DiffTexts computes a line-based diff from a to b (longest common
// subsequence), used to compare document versions.
func DiffTexts(a, b string) []Hunk {
	al := splitLines(a)
	bl := splitLines(b)
	// LCS table.
	n, m := len(al), len(bl)
	lcs := make([][]int, n+1)
	for i := range lcs {
		lcs[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if al[i] == bl[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	var hunks []Hunk
	push := func(kind DiffKind, line string) {
		if len(hunks) > 0 && hunks[len(hunks)-1].Kind == kind {
			hunks[len(hunks)-1].Lines = append(hunks[len(hunks)-1].Lines, line)
			return
		}
		hunks = append(hunks, Hunk{Kind: kind, Lines: []string{line}})
	}
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case al[i] == bl[j]:
			push(DiffKeep, al[i])
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
			push(DiffDelete, al[i])
			i++
		default:
			push(DiffAdd, bl[j])
			j++
		}
	}
	for ; i < n; i++ {
		push(DiffDelete, al[i])
	}
	for ; j < m; j++ {
		push(DiffAdd, bl[j])
	}
	return hunks
}

func splitLines(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// formatDiff renders hunks in unified-ish form.
func formatDiff(hunks []Hunk) string {
	var sb strings.Builder
	for _, h := range hunks {
		for _, line := range h.Lines {
			fmt.Fprintf(&sb, "%s %s\n", h.Kind, line)
		}
	}
	return sb.String()
}

// diffVersions diffs two versions of the document (older first). Passing
// util.NilID as `to` diffs against the current text, so
// diffVersions(v, util.NilID) shows what changed since version v. Both
// sides reconstruct from one committed snapshot (the seed version read
// each side under a separate lock acquisition, so an edit landing between
// them produced a diff of two states that never coexisted).
func (d *Document) diffVersions(from, to util.ID) ([]Hunk, error) {
	return d.Snapshot().DiffVersions(from, to)
}
