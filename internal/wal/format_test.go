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

// goldenRecords is one record of every type and page op, a CLR of each op,
// and splices that keep, grow and shrink the record. Names are the keys of
// testdata/records.golden.
var goldenRecords = []struct {
	name string
	r    Record
}{
	{"begin", Record{LSN: 1, Type: RecBegin, TxnID: 7}},
	{"commit", Record{LSN: 300, Type: RecCommit, TxnID: 7, PrevLSN: 299}},
	{"abort", Record{LSN: 1 << 20, Type: RecAbort, TxnID: 1 << 33, PrevLSN: 1<<20 - 200}},
	{"checkpoint", Record{LSN: 5000, Type: RecCheckpoint}},
	{"ckpt-begin", Record{LSN: 5001, Type: RecCkptBegin}},
	{"ckpt-end", Record{LSN: 5002, Type: RecCkptEnd,
		After: (&CheckpointBody{BeginLSN: 5001, RedoLSN: 4000, DPT: []storage.DirtyPage{{ID: 3, RecLSN: 4000}},
			ATT: []ActiveTxn{{ID: 9, FirstLSN: 4100}}}).Encode()}},
	{"update-insert", Record{LSN: 2, Type: RecUpdate, TxnID: 7, PrevLSN: 1,
		Page: 5, Slot: 3, Op: OpInsert, Owner: 4, After: []byte("a new row")}},
	{"update-splice-same-length", Record{LSN: 130, Type: RecUpdate, TxnID: 7, PrevLSN: 2,
		Page: 300, Slot: 70000, Op: OpUpdate, Owner: 4, Off: 40, Before: []byte{0, 0, 1, 17}, After: []byte{0, 0, 2, 9}}},
	{"update-splice-grows", Record{LSN: 131, Type: RecUpdate, TxnID: 7, PrevLSN: 130,
		Page: 5, Slot: 3, Op: OpUpdate, Owner: 4, Off: 9, After: []byte(" grown")}},
	{"update-splice-shrinks", Record{LSN: 132, Type: RecUpdate, TxnID: 7, PrevLSN: 131,
		Page: 5, Slot: 3, Op: OpUpdate, Owner: 4, Off: 2, Before: []byte("new"), After: []byte("N")}},
	{"update-delete", Record{LSN: 133, Type: RecUpdate, TxnID: 7, PrevLSN: 132,
		Page: 5, Slot: 4, Op: OpDelete, Owner: 4, Before: []byte("an old row")}},
	{"clr-of-insert", Record{LSN: 140, Type: RecCLR, TxnID: 7, PrevLSN: 133,
		Page: 5, Slot: 3, Op: OpDelete, Owner: 4, Before: []byte("a new row"), UndoNext: 1}},
	{"clr-of-update", Record{LSN: 141, Type: RecCLR, TxnID: 7, PrevLSN: 140,
		Page: 5, Slot: 3, Op: OpUpdate, Owner: 4, Off: 2, Before: []byte("N"), After: []byte("new"), UndoNext: 131}},
	{"clr-of-delete", Record{LSN: 142, Type: RecCLR, TxnID: 7, PrevLSN: 141,
		Page: 5, Slot: 4, Op: OpInsert, Owner: 4, After: []byte("an old row")}},
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
// record encodes to its golden frame, and every golden frame decodes to its
// record. A format change shows up here as a diff, not as a log a newer
// release cannot read.
func TestRecordGolden(t *testing.T) {
	golden := readGolden(t)
	if len(golden) != len(goldenRecords) {
		t.Errorf("%d golden frames for %d records", len(golden), len(goldenRecords))
	}
	for _, g := range goldenRecords {
		want, ok := golden[g.name]
		if !ok {
			t.Errorf("%s: no golden frame; it encodes to\n%s %x", g.name, g.name, appendFrame(nil, &g.r))
			continue
		}
		if got := appendFrame(nil, &g.r); !bytes.Equal(got, want) {
			t.Errorf("%s encodes to\n %x\ngolden is\n %x", g.name, got, want)
		}
		payload, err := frameAt(want)
		if err != nil || len(payload)+frameHeader != len(want) {
			t.Errorf("%s: golden frame unreadable: %v", g.name, err)
			continue
		}
		var r Record
		if err := decode(payload, &r); err != nil || !sameRecord(&r, &g.r) {
			t.Errorf("%s: golden frame decodes to %+v (%v)", g.name, r, err)
		}
		if g.r.Size() != len(want) {
			t.Errorf("%s: Size %d, frame %d bytes", g.name, g.r.Size(), len(want))
		}
	}
}

// TestDecodeRejectsMalformed: an intact payload that is not one canonical
// record is ErrFormat — never a torn tail, never a silently different record.
func TestDecodeRejectsMalformed(t *testing.T) {
	update := appendRecord(nil, &Record{LSN: 9, Type: RecUpdate, TxnID: 1, PrevLSN: 8,
		Page: 1, Slot: 2, Op: OpUpdate, Owner: 3, Off: 4, Before: []byte("b"), After: []byte("a")})
	for name, p := range map[string][]byte{
		"empty":               {},
		"type 0":              {0, 1, 1, 0},
		"type 9":              {9, 1, 1, 0},
		"trailing byte":       {byte(RecBegin), 1, 1, 0, 0},
		"non-minimal varint":  {byte(RecBegin), 0x81, 0x00, 1, 0},
		"PrevLSN not below":   {byte(RecCommit), 5, 1, 5},
		"varint overflow":     append([]byte{byte(RecBegin)}, bytes.Repeat([]byte{0xff}, 11)...),
		"op 0":                {byte(RecUpdate), 9, 1, 0, 0, 1, 2, 3, 0, 0},
		"op 4":                {byte(RecUpdate), 9, 1, 0, 4, 1, 2, 3, 0, 0},
		"op 257 (wraps to 1)": {byte(RecUpdate), 9, 1, 0, 0x81, 0x02, 1, 2, 3, 0, 0},
		"slot over 32 bits":   {byte(RecUpdate), 9, 1, 0, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 3, 0, 0},
		"image past the end":  {byte(RecUpdate), 9, 1, 0, 1, 1, 2, 3, 0, 5, 'a'},
		"truncated update":    update[:len(update)-1],
		"UndoNext not below":  {byte(RecCLR), 9, 1, 0, 1, 1, 2, 3, 0, 0, 9},
	} {
		var r Record
		if err := decode(p, &r); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: decode(%x) = %v, want ErrFormat", name, p, err)
		}
	}
}

// TestLegacyLogRefused: testdata/legacy.log holds a begin, an insert and a
// commit written by the fixed-width format this one replaced (commit
// 1cd4b33). Its payloads start with a zero byte — the high byte of a
// big-endian LSN — which no record type uses. Reading it as a torn tail would
// open the log empty and hand out LSNs below the page LSNs on disk, so
// every reader refuses it instead.
func TestLegacyLogRefused(t *testing.T) {
	legacy, err := os.ReadFile("testdata/legacy.log")
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	if err := store.Append(legacy); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(store); !errors.Is(err, ErrFormat) {
		t.Fatalf("Open over a legacy log: %v, want ErrFormat", err)
	}

	// A log whose store turns legacy after Open: Iterate and Recover refuse
	// it too, and so does truncation.
	store = NewMemStore()
	log, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(legacy); err != nil {
		t.Fatal(err)
	}
	if err := log.Iterate(func(*Record) error { return nil }); !errors.Is(err, ErrFormat) {
		t.Fatalf("Iterate: %v, want ErrFormat", err)
	}
	if _, err := Recover(log, storage.NewBufferPool(storage.NewMemDisk(), 4)); !errors.Is(err, ErrFormat) {
		t.Fatalf("Recover: %v, want ErrFormat", err)
	}
	if _, err := log.TruncateBelow(100); !errors.Is(err, ErrFormat) {
		t.Fatalf("TruncateBelow: %v, want ErrFormat", err)
	}

	// A torn legacy tail is still just a torn tail.
	store = NewMemStore()
	if err := store.Append(legacy[:5]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(store); err != nil {
		t.Fatalf("Open over 5 torn bytes: %v", err)
	}
}

// TestRedoRejectsPreImageMismatch: redo of an update needs the page to hold
// exactly the bytes the splice replaces; anything else is an error, never a
// silent overwrite.
func TestRedoRejectsPreImageMismatch(t *testing.T) {
	disk := storage.NewMemDisk()
	pool := storage.NewBufferPool(disk, 16)
	store := NewMemStore()
	log, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
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

	log2, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(log2, storage.NewBufferPool(disk, 16)); !errors.Is(err, ErrPreImage) {
		t.Fatalf("Recover over a mismatched pre-image: %v, want ErrPreImage", err)
	}
}

// FuzzDecodeRecord: decoding never panics and never allocates (images alias
// the payload), and a payload that decodes re-encodes to itself — the format
// has one spelling per record.
func FuzzDecodeRecord(f *testing.F) {
	for _, g := range goldenRecords {
		f.Add(appendRecord(nil, &g.r))
	}
	if legacy, err := os.ReadFile("testdata/legacy.log"); err == nil {
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
		if err := decode(p, &r); err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("decode error %v is not ErrFormat", err)
			}
			return
		}
		if got := appendRecord(nil, &r); !bytes.Equal(got, p) {
			t.Fatalf("re-encoding %+v\n gave %x\nfrom   %x", r, got, p)
		}
		if allocs := testing.AllocsPerRun(1, func() { _ = decode(p, &r) }); allocs != 0 {
			t.Fatalf("decode allocated %v times", allocs)
		}
	})
}
