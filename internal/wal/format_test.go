package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"strings"
	"testing"

	"tendax/internal/storage"
)

// goldenFrames holds one record of every type and page op, a CLR of each
// op, and splices that keep, grow and shrink the record, each a frame of
// its own, then a frame of several transactions' records, as one batch of
// the flusher holds them. Names are the keys of testdata/records.golden.
var goldenFrames = []struct {
	name string
	recs []Record
}{
	{"begin", []Record{{LSN: 1, Type: RecBegin, TxnID: 7}}},
	{"commit", []Record{{LSN: 300, Type: RecCommit, TxnID: 7}}},
	{"abort", []Record{{LSN: 1 << 20, Type: RecAbort, TxnID: 1 << 33}}},
	{"checkpoint", []Record{{LSN: 5000, Type: RecCheckpoint}}},
	{"ckpt-begin", []Record{{LSN: 5001, Type: RecCkptBegin}}},
	{"ckpt-end", []Record{{LSN: 5002, Type: RecCkptEnd,
		After: (&CheckpointBody{BeginLSN: 5001, RedoLSN: 4000, DPT: []storage.DirtyPage{{ID: 3, RecLSN: 4000}},
			ATT: []ActiveTxn{{ID: 9, FirstLSN: 4100}}}).Encode()}}},
	{"update-insert", []Record{{LSN: 2, Type: RecUpdate, TxnID: 7, PrevLSN: 1,
		Page: 5, Slot: 3, Op: OpInsert, Owner: 4, After: []byte("a new row")}}},
	{"update-splice-same-length", []Record{{LSN: 130, Type: RecUpdate, TxnID: 7, PrevLSN: 2,
		Page: 300, Slot: 70000, Op: OpUpdate, Owner: 4, Off: 40, Before: []byte{0, 0, 1, 17}, After: []byte{0, 0, 2, 9}}}},
	{"update-splice-grows", []Record{{LSN: 131, Type: RecUpdate, TxnID: 7, PrevLSN: 130,
		Page: 5, Slot: 3, Op: OpUpdate, Owner: 4, Off: 9, After: []byte(" grown")}}},
	{"update-splice-shrinks", []Record{{LSN: 132, Type: RecUpdate, TxnID: 7, PrevLSN: 131,
		Page: 5, Slot: 3, Op: OpUpdate, Owner: 4, Off: 2, Before: []byte("new"), After: []byte("N")}}},
	{"update-delete", []Record{{LSN: 133, Type: RecUpdate, TxnID: 7, PrevLSN: 132,
		Page: 5, Slot: 4, Op: OpDelete, Owner: 4, Before: []byte("an old row")}}},
	{"clr-of-insert", []Record{{LSN: 140, Type: RecCLR, TxnID: 7, PrevLSN: 133,
		Page: 5, Slot: 3, Op: OpDelete, Owner: 4, Before: []byte("a new row"), UndoNext: 1}}},
	{"clr-of-update", []Record{{LSN: 141, Type: RecCLR, TxnID: 7, PrevLSN: 140,
		Page: 5, Slot: 3, Op: OpUpdate, Owner: 4, Off: 2, Before: []byte("N"), After: []byte("new"), UndoNext: 131}}},
	{"clr-of-delete", []Record{{LSN: 142, Type: RecCLR, TxnID: 7, PrevLSN: 141,
		Page: 5, Slot: 4, Op: OpInsert, Owner: 4, After: []byte("an old row")}}},
	// Two keystrokes committed by one sync: each transaction's chars
	// insert and op insert, then both commits.
	{"batch-of-two-transactions", []Record{
		{LSN: 900, Type: RecUpdate, TxnID: 41, Page: 6, Slot: 20, Op: OpInsert, Owner: 2, After: []byte("chars row k")},
		{LSN: 901, Type: RecUpdate, TxnID: 42, Page: 6, Slot: 21, Op: OpInsert, Owner: 2, After: []byte("chars row j")},
		{LSN: 902, Type: RecUpdate, TxnID: 41, PrevLSN: 900, Page: 9, Slot: 7, Op: OpInsert, Owner: 3, After: []byte("op row")},
		{LSN: 903, Type: RecUpdate, TxnID: 42, PrevLSN: 901, Page: 9, Slot: 8, Op: OpInsert, Owner: 3, After: []byte("op row")},
		{LSN: 904, Type: RecCommit, TxnID: 41},
		{LSN: 905, Type: RecCommit, TxnID: 42},
	}},
}

// appendFrame appends recs, whose LSNs follow each other, as one frame.
func appendFrame(b []byte, recs ...*Record) []byte {
	start := len(b)
	b = openFrame(b, recs[0].LSN)
	for _, r := range recs {
		b = appendRecord(b, r)
	}
	sealFrames(b[start:], 0)
	return b
}

// recordSize returns the bytes r occupies inside its frame.
func recordSize(r *Record) int { return len(appendRecord(nil, r)) }

// frameOf encodes recs as one frame.
func frameOf(recs []Record) []byte {
	ps := make([]*Record, len(recs))
	for i := range recs {
		ps[i] = &recs[i]
	}
	return appendFrame(nil, ps...)
}

// walkAll decodes data through Walk, returning copies of its records and
// the offset just past each.
func walkAll(data []byte) (recs []Record, ends []int, err error) {
	err = Walk(data, func(r *Record, end, _ int) bool {
		recs = append(recs, *r)
		ends = append(ends, end)
		return true
	})
	return recs, ends, err
}

func readGolden(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open("testdata/records.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string][]byte{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hx, ok := strings.Cut(line, " ")
		frame, err := hex.DecodeString(hx)
		if !ok || err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		golden[name] = frame
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestRecordGolden pins the log format to the byte, frame included: every
// frame's records encode to its golden frame, every golden frame decodes
// to its records, and each record takes Size bytes of its frame. A format
// change shows up here as a diff, not as a log a newer release cannot read.
func TestRecordGolden(t *testing.T) {
	golden := readGolden(t)
	if len(golden) != len(goldenFrames) {
		t.Errorf("%d golden frames for %d frames", len(golden), len(goldenFrames))
	}
	for _, g := range goldenFrames {
		want, ok := golden[g.name]
		if !ok {
			t.Errorf("%s: no golden frame; it encodes to\n%s %x", g.name, g.name, frameOf(g.recs))
			continue
		}
		if got := frameOf(g.recs); !bytes.Equal(got, want) {
			t.Errorf("%s encodes to\n %x\ngolden is\n %x", g.name, got, want)
		}
		recs, ends, err := walkAll(want)
		if err != nil || len(recs) != len(g.recs) {
			t.Errorf("%s: golden frame reads as %d records (%v), want %d", g.name, len(recs), err, len(g.recs))
			continue
		}
		start := len(want)
		for i := range g.recs {
			start -= recordSize(&g.recs[i])
		}
		for i := range recs {
			if !sameRecord(&recs[i], &g.recs[i]) {
				t.Errorf("%s: golden record %d decodes to %+v", g.name, i, recs[i])
			}
			if start += recordSize(&g.recs[i]); ends[i] != start {
				t.Errorf("%s: record %d ends at byte %d, its Size puts the end at %d", g.name, i, ends[i], start)
			}
		}
	}
}

// TestDecodeRejectsMalformed: an intact payload that is not one canonical
// frame is ErrFormat — never a torn tail, never silently different records.
func TestDecodeRejectsMalformed(t *testing.T) {
	update := appendFrame(nil, &Record{LSN: 9, Type: RecUpdate, TxnID: 1, PrevLSN: 8,
		Page: 1, Slot: 2, Op: OpUpdate, Owner: 3, Off: 4, Before: []byte("b"), After: []byte("a")})[frameHeader:]
	const tag, begin, commit, upd, clr = frameTag, byte(RecBegin), byte(RecCommit), byte(RecUpdate), byte(RecCLR)
	for name, p := range map[string][]byte{
		"empty":                          {},
		"fixed-width record (tag 0)":     {0, 0, 0, 0, 0, 0, 0, 0, 1, 1},
		"per-record frame (a type)":      {begin, 1, 7, 0},
		"no record":                      {tag, 1},
		"first LSN 0":                    {tag, 0, begin, 1, 0},
		"non-minimal first LSN":          {tag, 0x81, 0x00, begin, 1, 0},
		"type 0":                         {tag, 1, 0, 1, 0},
		"type 9":                         {tag, 1, 9, 1, 0},
		"trailing byte":                  {tag, 1, begin, 1, 0, 0},
		"non-minimal varint":             {tag, 1, begin, 0x81, 0x00, 0},
		"PrevLSN not below":              {tag, 5, begin, 1, 5},
		"second record's PrevLSN at LSN": {tag, 1, begin, 1, 0, begin, 1, 2},
		"commit with PrevLSN":            {tag, 5, commit, 1, 1},
		"varint overflow":                append([]byte{tag, 1, begin}, bytes.Repeat([]byte{0xff}, 11)...),
		"op 0":                           {tag, 9, upd, 1, 0, 0, 1, 2, 3, 0, 0},
		"op 4":                           {tag, 9, upd, 1, 0, 4, 1, 2, 3, 0, 0},
		"op 257 (wraps to 1)":            {tag, 9, upd, 1, 0, 0x81, 0x02, 1, 2, 3, 0, 0},
		"slot over 32 bits":              {tag, 9, upd, 1, 0, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 3, 0, 0},
		"image past the end":             {tag, 9, upd, 1, 0, 1, 1, 2, 3, 0, 5, 'a'},
		"truncated update":               update[:len(update)-1],
		"UndoNext not below":             {tag, 9, clr, 1, 0, 1, 1, 2, 3, 0, 0, 9},
	} {
		var r Record
		if err := decodeFrame(p, &r, func(int) bool { return true }); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: decodeFrame(%x) = %v, want ErrFormat", name, p, err)
		}
	}
}

// TestFrameCap: a batch larger than maxFrame goes out as several frames,
// each closed at the first record that takes it to maxFrame bytes, and
// its records read back in order with their LSNs.
func TestFrameCap(t *testing.T) {
	store := NewMemStore()
	log := openLog(t, store)
	row := bytes.Repeat([]byte("x"), 1000)
	const n = 3 * maxFrame / 1000
	for i := 0; i < n; i++ {
		if _, err := log.Append(&Record{Type: RecUpdate, TxnID: 1, Op: OpInsert, Slot: uint32(i), After: row}); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	data, _ := store.ReadAll()
	var frames, size, i int
	err := Walk(data, func(r *Record, end, frameEnd int) bool {
		if r.LSN != LSN(i+1) || r.Slot != uint32(i) || !bytes.Equal(r.After, row) {
			t.Errorf("record %d reads as LSN %d slot %d", i, r.LSN, r.Slot)
		}
		i++
		if end == frameEnd {
			if n := frameEnd - size; n > maxFrame+recordSize(r) {
				t.Errorf("frame %d holds %d bytes, over %d", frames, n, maxFrame+recordSize(r))
			}
			frames, size = frames+1, frameEnd
		}
		return true
	})
	if err != nil || i != n || size != len(data) {
		t.Fatalf("read %d of %d records to byte %d of %d: %v", i, n, size, len(data), err)
	}
	if frames < 3 || frames > 4 {
		t.Errorf("a %d-byte batch went out as %d frames, want 3 or 4 of at most %d bytes", len(data), frames, maxFrame)
	}
}

// TestLegacyLogRefused: testdata/legacy.log holds a begin, an insert and a
// commit written by the fixed-width format (commit 1cd4b33), whose payloads
// start with a zero byte, the high byte of a big-endian LSN.
// testdata/v3.log holds a checkpoint pair written with a frame per record
// (db format 3), whose payloads start with the record's type. Neither is
// frameTag. Reading either as a torn tail would open the log empty and
// hand out LSNs below the page LSNs on disk, so every reader refuses both
// instead.
func TestLegacyLogRefused(t *testing.T) {
	for _, name := range []string{"legacy.log", "v3.log"} {
		legacy, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		store := NewMemStore()
		if err := store.Append(legacy); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(store); !errors.Is(err, ErrFormat) {
			t.Fatalf("Open over %s: %v, want ErrFormat", name, err)
		}

		// A log whose store turns legacy after Open: Iterate and Recover
		// refuse it too, and so does truncation.
		store = NewMemStore()
		log := openLog(t, store)
		if err := store.Append(legacy); err != nil {
			t.Fatal(err)
		}
		if err := log.Iterate(func(*Record) error { return nil }); !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: Iterate: %v, want ErrFormat", name, err)
		}
		if _, err := Recover(log, storage.NewBufferPool(storage.NewMemDisk(), 4)); !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: Recover: %v, want ErrFormat", name, err)
		}
		if _, err := log.TruncateBelow(100); !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: TruncateBelow: %v, want ErrFormat", name, err)
		}

		// A torn legacy tail is still just a torn tail.
		store = NewMemStore()
		if err := store.Append(legacy[:5]); err != nil {
			t.Fatal(err)
		}
		openLog(t, store)
	}
}

// TestRedoRejectsPreImageMismatch: redo of an update needs the page to hold
// exactly the bytes the splice replaces; anything else is an error, never a
// silent overwrite.
func TestRedoRejectsPreImageMismatch(t *testing.T) {
	disk := storage.NewMemDisk()
	pool := storage.NewBufferPool(disk, 16)
	store := NewMemStore()
	log := openLog(t, store)
	page := newHeapPage(t, pool)
	tx := beginSim(t, log, pool, 1)
	slot := tx.insert(page, []byte("the row"))
	tx.commit()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Logged against "THE row", which the page never held.
	lsn, err := log.Append(&Record{Type: RecUpdate, TxnID: 1, PrevLSN: tx.prev,
		Page: page, Slot: slot, Op: OpUpdate, Before: []byte("THE"), After: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	tx.prev = lsn
	tx.commit()

	log2 := openLog(t, store)
	if _, err := Recover(log2, storage.NewBufferPool(disk, 16)); !errors.Is(err, ErrPreImage) {
		t.Fatalf("Recover over a mismatched pre-image: %v, want ErrPreImage", err)
	}
}

// FuzzDecodeRecord: decoding a frame payload — the records of one flush
// after their tag and first LSN — never panics and never allocates (images
// alias the payload), and a payload that decodes re-encodes to itself: the
// format has one spelling per frame.
func FuzzDecodeRecord(f *testing.F) {
	for _, g := range goldenFrames {
		f.Add(frameOf(g.recs)[frameHeader:])
	}
	for _, name := range []string{"legacy.log", "v3.log"} {
		legacy, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		for data := legacy; len(data) > frameHeader; {
			n := int(binary.BigEndian.Uint32(data))
			if len(data) < frameHeader+n {
				break
			}
			f.Add(data[frameHeader : frameHeader+n])
			data = data[frameHeader+n:]
		}
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		var r Record
		var recs []*Record
		err := decodeFrame(p, &r, func(int) bool {
			c := r
			recs = append(recs, &c)
			return true
		})
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("decode error %v is not ErrFormat", err)
			}
			return
		}
		if got := appendFrame(nil, recs...)[frameHeader:]; !bytes.Equal(got, p) {
			t.Fatalf("re-encoding %d records\n gave %x\nfrom   %x", len(recs), got, p)
		}
		noop := func(int) bool { return true }
		if allocs := testing.AllocsPerRun(1, func() { _ = decodeFrame(p, &r, noop) }); allocs != 0 {
			t.Fatalf("decode allocated %v times", allocs)
		}
	})
}
