package storage

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestFileDiskRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	id, err := d.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Fatalf("first page id = %v, want 0", id)
	}
	buf := make([]byte, PageSize)
	copy(buf, []byte("hello tendax"))
	if err := d.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("page content mismatch after round trip")
	}
}

func TestFileDiskReopenKeepsPages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		id, err := d.AllocatePage()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, PageSize)
		buf[0] = byte(i + 1)
		if err := d.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if n := d2.NumPages(); n != 5 {
		t.Fatalf("NumPages after reopen = %d, want 5", n)
	}
	buf := make([]byte, PageSize)
	if err := d2.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 4 {
		t.Fatalf("page 3 first byte = %d, want 4", buf[0])
	}
}

func TestFileDiskRejectsUnallocated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buf := make([]byte, PageSize)
	if err := d.ReadPage(7, buf); err == nil {
		t.Fatal("read of unallocated page succeeded")
	}
	if err := d.WritePage(7, buf); err == nil {
		t.Fatal("write of unallocated page succeeded")
	}
}

func TestMemDiskBehavesLikeFileDisk(t *testing.T) {
	d := NewMemDisk()
	id, err := d.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	buf[100] = 42
	if err := d.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if got[100] != 42 {
		t.Fatal("MemDisk did not persist write")
	}
	if err := d.ReadPage(9, got); err == nil {
		t.Fatal("MemDisk read of unallocated page succeeded")
	}
}

func TestBufferPoolFetchCachesPages(t *testing.T) {
	d := NewMemDisk()
	bp := NewBufferPool(d, 4)
	pg, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	pg.data[:][PageHeaderSize] = 7
	pg.MarkDirty()
	if err := bp.Unpin(pg.ID(), true); err != nil {
		t.Fatal(err)
	}

	again, err := bp.Fetch(pg.ID())
	if err != nil {
		t.Fatal(err)
	}
	if again.data[:][PageHeaderSize] != 7 {
		t.Fatal("cached page lost its content")
	}
	if err := bp.Unpin(pg.ID(), false); err != nil {
		t.Fatal(err)
	}
	hits, _ := bp.Stats()
	if hits == 0 {
		t.Fatal("expected at least one buffer pool hit")
	}
}

func TestBufferPoolEvictsAndWritesBack(t *testing.T) {
	d := NewMemDisk()
	bp := NewBufferPool(d, 2)
	var first PageID
	// Create three pages through a two-frame pool: eviction must occur.
	for i := 0; i < 3; i++ {
		pg, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = pg.ID()
		}
		pg.data[:][PageHeaderSize] = byte(i + 1)
		pg.MarkDirty()
		if err := bp.Unpin(pg.ID(), true); err != nil {
			t.Fatal(err)
		}
	}
	pg, err := bp.Fetch(first)
	if err != nil {
		t.Fatal(err)
	}
	if pg.data[:][PageHeaderSize] != 1 {
		t.Fatal("evicted dirty page was not written back")
	}
	bp.Unpin(first, false)
}

func TestBufferPoolFullWhenAllPinned(t *testing.T) {
	d := NewMemDisk()
	bp := NewBufferPool(d, 2)
	for i := 0; i < 2; i++ {
		if _, err := bp.NewPage(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bp.NewPage(); err != ErrPoolFull {
		t.Fatalf("err = %v, want ErrPoolFull", err)
	}
}

func TestBufferPoolUnpinErrors(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 2)
	if err := bp.Unpin(99, false); err == nil {
		t.Fatal("unpin of non-resident page succeeded")
	}
	pg, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(pg.ID(), false); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(pg.ID(), false); err == nil {
		t.Fatal("double unpin succeeded")
	}
}

func TestSlottedInsertGetDelete(t *testing.T) {
	pg := &Page{}
	sp := InitSlotted(pg)
	s0, err := sp.insert([]byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := sp.insert([]byte("beta"))
	if err != nil {
		t.Fatal(err)
	}
	if s0 == s1 {
		t.Fatal("slots collide")
	}
	got, err := sp.Get(s0)
	if err != nil || string(got) != "alpha" {
		t.Fatalf("Get(s0) = %q, %v", got, err)
	}
	if err := sp.Delete(s0); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Get(s0); err != ErrNoRecord {
		t.Fatalf("Get after delete = %v, want ErrNoRecord", err)
	}
	// Slot numbers of surviving records are stable.
	got, err = sp.Get(s1)
	if err != nil || string(got) != "beta" {
		t.Fatalf("Get(s1) = %q, %v", got, err)
	}
}

func TestSlottedUpdateInPlaceAndGrow(t *testing.T) {
	pg := &Page{}
	sp := InitSlotted(pg)
	s, err := sp.insert([]byte("small"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Update(s, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	got, _ := sp.Get(s)
	if string(got) != "tiny" {
		t.Fatalf("after shrink update: %q", got)
	}
	if err := sp.Update(s, []byte("a considerably longer record")); err != nil {
		t.Fatal(err)
	}
	got, _ = sp.Get(s)
	if string(got) != "a considerably longer record" {
		t.Fatalf("after grow update: %q", got)
	}
}

func TestSlottedPageFull(t *testing.T) {
	pg := &Page{}
	sp := InitSlotted(pg)
	rec := bytes.Repeat([]byte("x"), 512)
	inserted := 0
	for {
		if _, err := sp.insert(rec); err != nil {
			if err != ErrPageFull {
				t.Fatalf("unexpected error %v", err)
			}
			break
		}
		inserted++
	}
	if inserted < 6 || inserted > 8 {
		t.Fatalf("inserted %d 512-byte records into a 4K page", inserted)
	}
}

func TestSlottedInsertAtForRedo(t *testing.T) {
	pg := &Page{}
	sp := InitSlotted(pg)
	if err := sp.InsertAt(3, []byte("redo")); err != nil {
		t.Fatal(err)
	}
	got, err := sp.Get(3)
	if err != nil || string(got) != "redo" {
		t.Fatalf("Get(3) = %q, %v", got, err)
	}
	// Slots 0-2 must be dead placeholders.
	for i := 0; i < 3; i++ {
		if _, err := sp.Get(i); err == nil {
			t.Fatalf("slot %d unexpectedly live", i)
		}
	}
	if err := sp.InsertAt(3, []byte("dup")); err == nil {
		t.Fatal("InsertAt over live slot succeeded")
	}
}

func TestSlottedRoundTripProperty(t *testing.T) {
	f := func(recs [][]byte) bool {
		pg := &Page{}
		sp := InitSlotted(pg)
		var want [][]byte
		var slots []int
		for _, r := range recs {
			if len(r) > 1024 {
				r = r[:1024]
			}
			s, err := sp.insert(r)
			if err != nil {
				break
			}
			want = append(want, append([]byte(nil), r...))
			slots = append(slots, s)
		}
		for i, s := range slots {
			got, err := sp.Get(s)
			if err != nil || !bytes.Equal(got, want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPageLSNRoundTrip(t *testing.T) {
	pg := &Page{}
	pg.SetLSN(0xdeadbeef)
	if pg.LSN() != 0xdeadbeef {
		t.Fatal("LSN round trip failed")
	}
}

func TestBufferPoolManyPagesStress(t *testing.T) {
	d := NewMemDisk()
	bp := NewBufferPool(d, 8)
	const pages = 64
	ids := make([]PageID, pages)
	for i := 0; i < pages; i++ {
		pg, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = pg.ID()
		copy(pg.data[:][PageHeaderSize:], fmt.Sprintf("content-%03d", i))
		pg.MarkDirty()
		bp.Unpin(pg.ID(), true)
	}
	for i, id := range ids {
		pg, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("content-%03d", i)
		if string(pg.data[:][PageHeaderSize:PageHeaderSize+len(want)]) != want {
			t.Fatalf("page %v content lost through eviction", id)
		}
		bp.Unpin(id, false)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
}
