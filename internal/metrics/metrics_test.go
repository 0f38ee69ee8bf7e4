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
