// Ablation benchmarks for the design choices DESIGN.md calls out: the
// counted position index (the text mirror), B-tree secondary indexes, the
// buffer pool, and tombstone-based version reconstruction.
package tendax_test

import (
	"fmt"
	"testing"
	"time"

	"tendax/internal/db"
	"tendax/internal/texttree"
	"tendax/internal/util"
)

// buildBuffer creates a buffer with n visible characters.
func buildBuffer(b *testing.B, n int) *texttree.Buffer {
	b.Helper()
	buf := texttree.NewBuffer()
	var gen util.IDGen
	prev := util.NilID
	for i := 0; i < n; i++ {
		id := gen.Next()
		if _, err := buf.InsertRun(prev, []texttree.Char{{
			ID: id, Rune: 'a', Author: "u", Created: time.Unix(int64(i), 0),
		}}); err != nil {
			b.Fatal(err)
		}
		prev = id
	}
	return buf
}

// BenchmarkAblationPositionIndex compares the mirror's O(log n) position
// lookup against the naive linear walk a plain linked list would need —
// the core data-structure choice behind "editing cost flat in doc size".
func BenchmarkAblationPositionIndex(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		buf := buildBuffer(b, n)
		rng := util.NewRand(1)
		b.Run(fmt.Sprintf("mirror/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := buf.IDAt(rng.Intn(n)); !ok {
					b.Fatal("lookup failed")
				}
			}
		})
		b.Run(fmt.Sprintf("linear/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				target := rng.Intn(n)
				// Linear walk: what a scan of the instances in document
				// order, without the counts that index them, would cost.
				idx := 0
				var got util.ID
				buf.Walk(func(ch *texttree.Char, visible bool) bool {
					if visible {
						if idx == target {
							got = ch.ID
							return false
						}
						idx++
					}
					return true
				})
				if got.IsNil() {
					b.Fatal("walk failed")
				}
			}
		})
	}
}

// BenchmarkAblationSecondaryIndex compares equality lookup through the
// B-tree index against a full table scan with a predicate.
func BenchmarkAblationSecondaryIndex(b *testing.B) {
	database, err := db.Open(db.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer database.Close()
	tbl, err := database.CreateTable("t", db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "bucket", Type: db.TString},
	}, "bucket")
	if err != nil {
		b.Fatal(err)
	}
	tx, _ := database.Begin()
	const rows = 5000
	for i := int64(0); i < rows; i++ {
		if _, err := tbl.Insert(tx, db.Row{i, fmt.Sprintf("b%d", i%50)}); err != nil {
			b.Fatal(err)
		}
	}
	tx.Commit()

	b.Run("index-lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rids, err := tbl.LookupEq("bucket", "b7")
			if err != nil || len(rids) != rows/50 {
				b.Fatalf("lookup = %d, %v", len(rids), err)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			count := 0
			err := tbl.Scan(nil, func(_ db.RID, row db.Row) (bool, error) {
				if row[1].(string) == "b7" {
					count++
				}
				return true, nil
			})
			if err != nil || count != rows/50 {
				b.Fatalf("scan = %d, %v", count, err)
			}
		}
	})
}

// BenchmarkAblationBufferPool measures random point reads with a pool that
// fits the working set vs one that thrashes.
func BenchmarkAblationBufferPool(b *testing.B) {
	for _, pool := range []int{8, 1024} {
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			database, err := db.Open(db.Options{PoolPages: pool})
			if err != nil {
				b.Fatal(err)
			}
			defer database.Close()
			tbl, _ := database.CreateTable("t", db.Schema{
				{Name: "id", Type: db.TInt},
				{Name: "pad", Type: db.TBytes},
			})
			tx, _ := database.Begin()
			pad := make([]byte, 256)
			const rows = 2000 // ~140 pages: far beyond the small pool
			for i := int64(0); i < rows; i++ {
				if _, err := tbl.Insert(tx, db.Row{i, pad}); err != nil {
					b.Fatal(err)
				}
			}
			tx.Commit()
			rng := util.NewRand(3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := tbl.GetByPK(nil, int64(rng.Intn(rows))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationVersionReconstruction measures TextAt (tombstone filter)
// against full text extraction, showing versions cost no stored snapshots.
func BenchmarkAblationVersionReconstruction(b *testing.B) {
	buf := texttree.NewBuffer()
	var gen util.IDGen
	prev := util.NilID
	const n = 20_000
	for i := 0; i < n; i++ {
		id := gen.Next()
		buf.InsertRun(prev, []texttree.Char{{ID: id, Rune: 'a', Author: "u",
			Created: time.Unix(int64(i), 0)}})
		prev = id
	}
	// Delete every third character late in history.
	ids := buf.VisibleIDs()
	for i := 0; i < len(ids); i += 3 {
		buf.DeleteIDs(util.IDsOf(ids[i:i+1]), "u", time.Unix(n+int64(i), 0), nil)
	}
	mid := time.Unix(n/2, 0)
	b.Run("TextAt-midpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if s := buf.TextAt(mid); len(s) == 0 {
				b.Fatal("empty reconstruction")
			}
		}
	})
	b.Run("Text-current", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if s := buf.Text(); len(s) == 0 {
				b.Fatal("empty text")
			}
		}
	})
}
