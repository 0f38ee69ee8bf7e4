package db

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"tendax/internal/storage"
	"tendax/internal/wal"
)

// FormatVersion is the data directory format this build reads and writes:
// page layout, row encoding, log records and the engine's table layouts
// together. Changing any of them adds one here and a case to
// TestDataDirFormatRefused.
const FormatVersion = 4

// FormatError reports a data directory of another format than this
// build's. Have is 0 for one written before the superblock.
type FormatError struct{ Have, Want uint32 }

func (e *FormatError) Error() string {
	return fmt.Sprintf("db: data directory has format %d, this build reads format %d", e.Have, e.Want)
}

// ErrSuperblockChecksum reports a page 0 with the superblock's magic that
// fails its checksum: a corrupt page, not another format.
var ErrSuperblockChecksum = errors.New("db: superblock on page-0 fails its checksum")

// superMagic opens page 0 of every database.
const superMagic = "TeNDaXdb"

// superblock is page 0 of a database of format v: superMagic, v
// big-endian and the CRC32C of those 12 bytes, then zeros.
func superblock(v uint32) []byte {
	pg := make([]byte, storage.PageSize)
	copy(pg, superMagic)
	binary.BigEndian.PutUint32(pg[8:12], v)
	binary.BigEndian.PutUint32(pg[12:16], crc32.Checksum(pg[:12], crc32.MakeTable(crc32.Castagnoli)))
	return pg
}

// checkFormat reads page 0 before the log is read. A database whose log
// is empty and which has no page but a page 0 without a valid superblock
// is new, or its creation was cut short: it gets a superblock, synced
// before the log's first byte, and then dir, if given, is synced so that
// the files' names last too. Any other database opens only with a
// superblock of FormatVersion, and nothing is written to it.
func checkFormat(disk storage.DiskManager, store wal.Store, dir string) error {
	pg, n := make([]byte, storage.PageSize), disk.NumPages()
	if n > 0 {
		if err := disk.ReadPage(0, pg); err != nil {
			return err
		}
	}
	have := binary.BigEndian.Uint32(pg[8:12])
	valid := bytes.Equal(pg[:16], superblock(have)[:16])
	size, err := store.Size()
	switch {
	case err != nil:
		return err
	case !valid && size == 0 && n <= 1:
		if n == 0 {
			if _, err := disk.AllocatePage(); err != nil {
				return err
			}
		}
		if err := disk.WritePage(0, superblock(FormatVersion)); err != nil {
			return err
		}
		if err := disk.Sync(); err != nil || dir == "" {
			return err
		}
		f, err := os.Open(dir)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	case !valid && string(pg[:8]) == superMagic:
		return ErrSuperblockChecksum
	case !valid:
		return &FormatError{Want: FormatVersion}
	case have != FormatVersion:
		return &FormatError{Have: have, Want: FormatVersion}
	}
	return nil
}
