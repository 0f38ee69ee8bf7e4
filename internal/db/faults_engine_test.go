package db_test

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/server"
	"tendax/internal/storage"
	"tendax/internal/wal"
)

// TestPoisonedLogStopsEngine fails one fsync under a document's Apply:
// that Apply, every later one and the durability wait all return an error
// matching wal.ErrLogFailed, and the server's /metrics gauge log_failed
// turns from 0 to 1.
func TestPoisonedLogStopsEngine(t *testing.T) {
	store, failSync := db.FailSyncSwitch(wal.NewMemStore())
	database, err := db.OpenWith(storage.NewMemDisk(), store, db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { database.Close() })
	eng, err := core.NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, nil)
	gauge := func() int {
		rec := httptest.NewRecorder()
		srv.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var snap struct {
			LogFailed *int `json:"log_failed"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil || snap.LogFailed == nil {
			t.Fatalf("/metrics: %v, no log_failed in %s", err, rec.Body.Bytes())
		}
		return *snap.LogFailed
	}
	d, err := eng.CreateDocument("alice", "doc")
	if err != nil {
		t.Fatal(err)
	}
	key := []core.EditOp{{Kind: core.EditInsert, Pos: -1, Text: "k"}}
	if _, err := d.Apply("alice", key); err != nil {
		t.Fatal(err)
	}
	if g := gauge(); g != 0 {
		t.Fatalf("log_failed is %d on a healthy log", g)
	}

	failSync.Store(true) // for this one batch
	_, err = d.Apply("alice", key)
	failSync.Store(false)
	if !errors.Is(err, wal.ErrLogFailed) || !strings.Contains(err.Error(), "injected fsync fault") {
		t.Fatalf("Apply whose fsync failed: %v, want wal.ErrLogFailed wrapping the injected fault", err)
	}
	if _, err := d.Apply("alice", key); !errors.Is(err, wal.ErrLogFailed) {
		t.Errorf("Apply after the failure: %v, want wal.ErrLogFailed", err)
	}
	if err := eng.WaitDurable(database.Log().NextLSN()); !errors.Is(err, wal.ErrLogFailed) {
		t.Errorf("WaitDurable after the failure: %v, want wal.ErrLogFailed", err)
	}
	if g := gauge(); g != 1 {
		t.Errorf("log_failed is %d on a poisoned log, want 1", g)
	}
}
