package db_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tendax/internal/db"
	"tendax/internal/placement"
	"tendax/internal/storage"
	"tendax/internal/wal"
)

// TestFixedWidthDataDirRefused opens a copy of testdata/fixedwidth, a
// data directory written with fixed-width rows by commit f666ef7 (a
// catalog and one table of three rows, no superblock): db.Open and
// placement.Open both refuse it as format 0 and leave its files as they
// were.
func TestFixedWidthDataDirRefused(t *testing.T) {
	pages := readFile(t, filepath.Join("testdata", "fixedwidth", "pages.db"))
	log := readFile(t, filepath.Join("testdata", "fixedwidth", "wal.log"))
	checkOpenRefused(t, pages, log, &db.FormatError{Have: 0, Want: db.FormatVersion})
}

// TestOpenRefusesLegacyLog opens ../wal/testdata/legacy.log, written
// before varint log records by commit 1cd4b33, beside an empty page file:
// a log with no superblock beside it is not a new database, so both opens
// refuse it as format 0 before the log is read, and write to neither file.
func TestOpenRefusesLegacyLog(t *testing.T) {
	legacyLog := readFile(t, filepath.Join("..", "wal", "testdata", "legacy.log"))
	checkOpenRefused(t, nil, legacyLog, &db.FormatError{Have: 0, Want: db.FormatVersion})
}

// TestDataDirFormatRefused opens damaged or foreign superblocks in a
// current data directory through checkOpenRefused:
//   - a superblock that names the format before this one, with a valid
//     checksum: what bumping FormatVersion makes of every directory
//     written before the bump;
//   - each of the 16 superblock bytes flipped;
//   - a heap page at page 0, as in every directory written before the
//     superblock;
//   - a current superblock beside ../wal/testdata/v3.log, a log of format
//     3 (a frame per record), refused by the log itself with wal.ErrFormat.
func TestDataDirFormatRefused(t *testing.T) {
	pages, log := currentDataDir(t)

	none := &db.FormatError{Have: 0, Want: db.FormatVersion}
	older := withPage0(pages, func(pg []byte) {
		binary.BigEndian.PutUint32(pg[8:12], db.FormatVersion-1)
		binary.BigEndian.PutUint32(pg[12:16], crc32.Checksum(pg[:12], crc32.MakeTable(crc32.Castagnoli)))
	})
	cases := []struct {
		name  string
		pages []byte
		want  error
	}{
		{"previous format", older, &db.FormatError{Have: db.FormatVersion - 1, Want: db.FormatVersion}},
		{"heap page at page 0", withPage0(pages, func(pg []byte) { copy(pg, pages[storage.PageSize:]) }), none},
	}
	for i := 0; i < 16; i++ {
		var want error = db.ErrSuperblockChecksum
		if i < 8 {
			want = none // the magic is gone: a directory from before the superblock
		}
		cases = append(cases, struct {
			name  string
			pages []byte
			want  error
		}{fmt.Sprintf("superblock byte %d flipped", i), withPage0(pages, func(pg []byte) { pg[i] ^= 0xff }), want})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkOpenRefused(t, c.pages, log, c.want) })
	}
	t.Run("format 3 log", func(t *testing.T) {
		checkOpenRefused(t, pages, readFile(t, filepath.Join("..", "wal", "testdata", "v3.log")), wal.ErrFormat)
	})
}

// checkOpenRefused writes pages and log as a data directory and opens it
// through db.Open and through placement.Open, the layer that opens a
// shard's database and engine. Each must fail with want (see
// checkRefusal) and leave both files byte for byte as they were.
func checkOpenRefused(t *testing.T, pages, log []byte, want error) {
	t.Helper()
	dir := t.TempDir()
	files := map[string][]byte{"pages.db": pages, "wal.log": log}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := db.Open(db.Options{Dir: dir})
	if d != nil {
		d.Close()
	}
	checkRefusal(t, "db.Open", err, want)
	cl, err := placement.Open(placement.Options{Dir: dir})
	if cl != nil {
		cl.Close()
	}
	checkRefusal(t, "placement.Open", err, want)
	for name, b := range files {
		if got := readFile(t, filepath.Join(dir, name)); !bytes.Equal(got, b) {
			t.Errorf("%s changed under the refused opens", name)
		}
	}
}

// TestCreationCutShortReopens: a crash while a new database is created
// leaves an empty log beside no page, a zeroed page 0 or a page 0 that
// holds only the magic. Each opens as a new database, which reopens.
func TestCreationCutShortReopens(t *testing.T) {
	torn := make([]byte, storage.PageSize)
	copy(torn, "TeNDaXdb")
	for name, pages := range map[string][]byte{
		"no page":       nil,
		"zeroed page 0": make([]byte, storage.PageSize),
		"torn page 0":   torn,
	} {
		dir := t.TempDir()
		for file, b := range map[string][]byte{"pages.db": pages, "wal.log": nil} {
			if err := os.WriteFile(filepath.Join(dir, file), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			d, err := db.Open(db.Options{Dir: dir})
			if err != nil {
				t.Fatalf("%s: open %d: %v", name, i, err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkRefusal fails t unless err is want: a *db.FormatError equal to it
// whose message names both versions, or an error that wraps it.
func checkRefusal(t *testing.T, open string, err, want error) {
	t.Helper()
	var fe *db.FormatError
	if w, ok := want.(*db.FormatError); ok {
		if !errors.As(err, &fe) || *fe != *w {
			t.Fatalf("%s: %v, want %#v", open, err, w)
		}
		for _, v := range []uint32{w.Have, w.Want} {
			if !strings.Contains(err.Error(), fmt.Sprintf("format %d", v)) {
				t.Errorf("%s: %q does not name format %d", open, err, v)
			}
		}
	} else if !errors.Is(err, want) || errors.As(err, &fe) {
		t.Fatalf("%s: %v, want %v", open, err, want)
	}
}

// currentDataDir returns the page file and log of a data directory this
// build wrote: one table of a few rows, closed cleanly.
func currentDataDir(t *testing.T) (pages, log []byte) {
	t.Helper()
	dir := t.TempDir()
	d, err := db.Open(db.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("t", db.Schema{{Name: "id", Type: db.TInt}, {Name: "body", Type: db.TString}})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := tbl.Insert(tx, db.Row{i, "row"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	pages, log = readFile(t, filepath.Join(dir, "pages.db")), readFile(t, filepath.Join(dir, "wal.log"))
	if len(pages) < 2*storage.PageSize || len(log) == 0 {
		t.Fatalf("a current directory has %d page bytes and %d log bytes, want two pages and a log", len(pages), len(log))
	}
	return pages, log
}

// withPage0 returns a copy of the page file pages with edit applied to
// its page 0.
func withPage0(pages []byte, edit func(pg []byte)) []byte {
	b := bytes.Clone(pages)
	edit(b[:storage.PageSize])
	return b
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
