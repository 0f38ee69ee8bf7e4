package storage

import (
	"bytes"
	"testing"

	"tendax/internal/util"
)

// TestUpdateGrowthTriggersCompaction repeatedly grows records in one page;
// without compaction the abandoned copies would exhaust it quickly.
func TestUpdateGrowthTriggersCompaction(t *testing.T) {
	pg := &Page{}
	sp := InitSlotted(pg)
	var slots []int
	for i := 0; i < 8; i++ {
		s, err := sp.insert(bytes.Repeat([]byte{byte(i)}, 200))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	// Grow every record by 40 bytes, four times: needs ~8*40*4 = 1280 fresh
	// bytes beyond the ~2.4K still free — only compaction makes it fit.
	size := 200
	for round := 0; round < 4; round++ {
		size += 40
		for i, s := range slots {
			rec := bytes.Repeat([]byte{byte(i)}, size)
			if err := sp.Update(s, rec); err != nil {
				t.Fatalf("round %d slot %d: %v", round, s, err)
			}
		}
	}
	for i, s := range slots {
		got, err := sp.Get(s)
		if err != nil || len(got) != size || got[0] != byte(i) {
			t.Fatalf("slot %d corrupted after compactions: %d bytes, %v", s, len(got), err)
		}
	}
}

// TestCompactionPreservesAllRecords randomizes inserts, deletes and grows,
// checking against a model after heavy fragmentation.
func TestCompactionPreservesAllRecords(t *testing.T) {
	rng := util.NewRand(31)
	pg := &Page{}
	sp := InitSlotted(pg)
	model := map[int][]byte{}
	for step := 0; step < 2000; step++ {
		switch rng.Intn(4) {
		case 0, 1: // insert
			rec := []byte(rng.Letters(20 + rng.Intn(100)))
			if s, err := sp.insert(rec); err == nil {
				model[s] = rec
			}
		case 2: // delete
			for s := range model {
				if err := sp.Delete(s); err != nil {
					t.Fatal(err)
				}
				delete(model, s)
				break
			}
		case 3: // grow-update
			for s, old := range model {
				rec := append(append([]byte(nil), old...), []byte(rng.Letters(30))...)
				if err := sp.Update(s, rec); err == nil {
					model[s] = rec
				}
				break
			}
		}
	}
	for s, want := range model {
		got, err := sp.Get(s)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("slot %d diverged after fragmentation workload", s)
		}
	}
}

// TestUpdateRestoresOldRecordWhenStillFull verifies the ErrPageFull path:
// if even compaction cannot fit the new record, the old one must survive.
func TestUpdateRestoresOldRecordWhenStillFull(t *testing.T) {
	pg := &Page{}
	sp := InitSlotted(pg)
	s0, err := sp.insert(bytes.Repeat([]byte{7}, 100))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the rest of the page.
	for {
		if _, err := sp.insert(bytes.Repeat([]byte{9}, 500)); err != nil {
			break
		}
	}
	// Now try to grow s0 far beyond any reclaimable space.
	err = sp.Update(s0, bytes.Repeat([]byte{8}, 3000))
	if err != ErrPageFull {
		t.Fatalf("err = %v, want ErrPageFull", err)
	}
	got, err := sp.Get(s0)
	if err != nil || len(got) != 100 || got[0] != 7 {
		t.Fatalf("old record lost after failed grow: %d bytes, %v", len(got), err)
	}
}

// TestCompactExcludingKeepsSlotsAndAllocatesNothing fills a page with
// records of distinct bytes, deletes every third and compacts it skipping
// one more: every other record keeps its slot number and its bytes, the
// dead and skipped slots read as dead, the reclaimed space is free, and a
// compaction allocates nothing.
func TestCompactExcludingKeepsSlotsAndAllocatesNothing(t *testing.T) {
	pg := &Page{}
	sp := InitSlotted(pg)
	model := map[int][]byte{}
	for i := 0; ; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, 20+i%37)
		s, err := sp.insert(rec)
		if err != nil {
			break
		}
		model[s] = rec
	}
	if len(model) < 50 || sp.FreeSpace() > 60 {
		t.Fatalf("page not full: %d records, %d bytes free", len(model), sp.FreeSpace())
	}
	for s := 0; s < sp.NumSlots(); s += 3 {
		if err := sp.Delete(s); err != nil {
			t.Fatal(err)
		}
		delete(model, s)
	}
	const skip = 4
	delete(model, skip)
	var scratch [PageSize]byte
	sp.compactExcluding(skip, &scratch)
	for s := 0; s < sp.NumSlots(); s++ {
		got, err := sp.Get(s)
		want, live := model[s]
		if live && (err != nil || !bytes.Equal(got, want)) {
			t.Fatalf("slot %d after compaction: %x, %v; want %x", s, got, err, want)
		}
		if !live && err == nil {
			t.Fatalf("dead or skipped slot %d reads live after compaction", s)
		}
	}
	used := 0
	for _, rec := range model {
		used += len(rec)
	}
	if want := PageSize - slotTableStart - sp.NumSlots()*slotSize - used - slotSize; sp.FreeSpace() != want {
		t.Fatalf("free space after compaction %d, want %d", sp.FreeSpace(), want)
	}
	if allocs := testing.AllocsPerRun(100, func() { sp.compactExcluding(-1, &scratch) }); allocs != 0 {
		t.Fatalf("compaction allocated %v times, want 0", allocs)
	}
}
