package metrics

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// TestIndexRefreshCountersOnTheScrape pins the JSON names an operator's
// dashboard keys on: the changed-range refresh count and the wholesale
// fallbacks by cause, under "index", and their absence while no indexer
// runs.
func TestIndexRefreshCountersOnTheScrape(t *testing.T) {
	m := New()
	scrape := func() map[string]json.RawMessage {
		t.Helper()
		rec := httptest.NewRecorder()
		m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var out map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("scrape is not JSON: %v\n%s", err, rec.Body)
		}
		return out
	}

	m.SetIndexStats(func() (IndexStats, bool) { return IndexStats{}, false })
	if _, ok := scrape()["index"]; ok {
		t.Fatal(`"index" present while the indexers are off`)
	}

	m.SetIndexStats(func() (IndexStats, bool) {
		return IndexStats{Docs: 2, AppliedOps: 90, Heals: 1, LagDocs: 1, DeltaRefreshes: 80,
			FullRefreshes: IndexFullRefreshes{Prime: 2, RingMiss: 4, SeqAhead: 5}}, true
	})
	var got struct {
		Delta *int64 `json:"delta_refreshes"`
		Full  *struct {
			Prime    *int64 `json:"prime"`
			RingMiss *int64 `json:"ring_miss"`
			SeqAhead *int64 `json:"seq_ahead"`
		} `json:"full_refreshes"`
	}
	raw := scrape()["index"]
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Delta == nil || got.Full == nil || got.Full.Prime == nil ||
		got.Full.RingMiss == nil || got.Full.SeqAhead == nil {
		t.Fatalf("a refresh counter is missing from %s", raw)
	}
	if *got.Delta != 80 || *got.Full.Prime != 2 || *got.Full.RingMiss != 4 || *got.Full.SeqAhead != 5 {
		t.Fatalf("refresh counters scrambled: %s", raw)
	}
}

// TestIndexLagPerShardOnTheScrape pins how an operator reads the indexer
// lag of one shard: "lag_events" under "index" is the total, and
// "index.shards" lists every shard's number, lag in events and documents,
// and progress.
func TestIndexLagPerShardOnTheScrape(t *testing.T) {
	m := New()
	m.SetIndexStats(func() (IndexStats, bool) {
		return IndexStats{Docs: 5, AppliedOps: 40, LagDocs: 1, LagEvents: 7, Shards: []IndexShardStats{
			{Shard: 0, Docs: 2, AppliedOps: 30},
			{Shard: 1, Docs: 3, AppliedOps: 10, LagDocs: 1, LagEvents: 7},
		}}, true
	})
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var out struct {
		Index struct {
			LagEvents *int `json:"lag_events"`
			Shards    []struct {
				Shard      *int   `json:"shard"`
				Docs       *int   `json:"docs"`
				AppliedOps *int64 `json:"applied_ops"`
				LagDocs    *int   `json:"lag_docs"`
				LagEvents  *int   `json:"lag_events"`
			} `json:"shards"`
		} `json:"index"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("scrape is not JSON: %v\n%s", err, rec.Body)
	}
	if out.Index.LagEvents == nil || *out.Index.LagEvents != 7 {
		t.Fatalf("total lag_events missing or wrong:\n%s", rec.Body)
	}
	if len(out.Index.Shards) != 2 {
		t.Fatalf("%d shards on the scrape, want 2:\n%s", len(out.Index.Shards), rec.Body)
	}
	for i, want := range []struct {
		docs, lagDocs, lagEvents int
		applied                  int64
	}{{2, 0, 0, 30}, {3, 1, 7, 10}} {
		sh := out.Index.Shards[i]
		if sh.Shard == nil || sh.Docs == nil || sh.AppliedOps == nil || sh.LagDocs == nil || sh.LagEvents == nil {
			t.Fatalf("shard %d: a field is missing:\n%s", i, rec.Body)
		}
		if *sh.Shard != i || *sh.Docs != want.docs || *sh.AppliedOps != want.applied ||
			*sh.LagDocs != want.lagDocs || *sh.LagEvents != want.lagEvents {
			t.Fatalf("shard %d scrambled:\n%s", i, rec.Body)
		}
	}
}
