package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"tendax/internal/txn"
)

// TestDeadlockRetryReusesBatchBuffers stages a batch by a new author —
// text typed into the middle of a run, so it writes a chars row, splits
// nothing, logs an op row and adds the author to the docs row — and
// persists it through withTxnAsync, whose first attempt is made a
// deadlock victim after everything is written. The retry writes the
// rows again into the same encoder buffers the aborted attempt used, and
// what commits is exactly the batch: the document reloaded from the
// tables matches the buffer, the op is in the history once, and the
// author is listed once.
func TestDeadlockRetryReusesBatchBuffers(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "retry")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("alice", 0, strings.Repeat("lorem ipsum ", 20)); err != nil {
		t.Fatal(err)
	}
	ops := len(d.History())

	attempts := 0
	var first *byte // the first chars record of the first attempt
	err = func() error {
		d.mu.Lock()
		defer d.mu.Unlock()
		st := getBatch("dave", e.clock.Now())
		defer st.release()
		if err := d.stageBatchLocked(st, []EditOp{{Kind: EditInsert, Pos: 6, Text: "dolor "}}); err != nil {
			return err
		}
		_, err := e.withTxnAsync(func(tx *txn.Txn) error {
			attempts++
			if err := d.persistBatchLocked(tx, st); err != nil {
				return err
			}
			if len(st.rows.recs) != 1 {
				return fmt.Errorf("attempt %d wrote %d chars rows, want 1", attempts, len(st.rows.recs))
			}
			rec := &st.rows.recs[0][0]
			if attempts == 1 {
				first = rec
				return fmt.Errorf("injected: %w", txn.ErrDeadlock)
			}
			if rec != first {
				return fmt.Errorf("the retry encoded its chars row into a new buffer")
			}
			return nil
		})
		if err != nil {
			return err
		}
		_, items, err := d.applyStagedLocked(st)
		if err != nil {
			return err
		}
		d.publishBatchLocked(st, items)
		return nil
	}()
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("%d attempts, want 2", attempts)
	}
	if got, want := d.Text(), "lorem dolor ipsum "; !strings.HasPrefix(got, want) {
		t.Fatalf("text %q, want it to start %q", got, want)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h := d.History(); len(h) != ops+1 || h[len(h)-1].User != "dave" {
		t.Fatalf("history after the retried batch: %d ops (want %d), last %+v", len(h), ops+1, h[len(h)-1])
	}
	row, _, err := e.tDocs.GetByPK(nil, int64(d.ID()))
	if err != nil {
		t.Fatal(err)
	}
	if authors := strings.Split(row[5].(string), ","); !slices.Equal(authors, []string{"alice", "dave"}) {
		t.Fatalf("authors column %q after the retried batch, want alice,dave", row[5])
	}
	if authors := d.Info().Authors; !slices.Equal(authors, []string{"alice", "dave"}) {
		t.Fatalf("authors %v after the retried batch, want [alice dave]", authors)
	}
}
