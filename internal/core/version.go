package core

import (
	"errors"
	"sort"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/db"
	"tendax/internal/txn"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// Version is a named point-in-time snapshot of a document. Because deletion
// is logical, a version costs one row: reconstruction is a filter over the
// stable character chain.
type Version struct {
	ID     util.ID
	Name   string
	Author string
	At     time.Time
}

// ErrVersionNotFound reports an unknown version.
var ErrVersionNotFound = errors.New("core: version not found")

// CreateVersion snapshots the document's current state under a name.
func (d *Document) CreateVersion(user, name string) (Version, error) {
	return commitLocked(d, user, RWrite, func() (Version, wal.LSN, error) {
		return d.createVersionLocked(user, name)
	})
}

func (d *Document) createVersionLocked(user, name string) (Version, wal.LSN, error) {
	id := d.eng.ids.Next()
	now := d.eng.clock.Now()
	lsn, err := d.eng.withTxnAsync(func(tx *txn.Txn) error {
		_, err := d.eng.tVersions.Insert(tx, db.Row{
			int64(id), int64(d.id), name, user, now,
		})
		return err
	})
	if err != nil {
		return Version{}, 0, err
	}
	v := Version{ID: id, Name: name, Author: user, At: now}
	d.publishEventLocked(awareness.Event{
		Doc: d.id, Kind: awareness.EvVersion, User: user, Name: name, At: now,
	})
	return v, lsn, nil
}

// Versions lists the document's versions, oldest first.
func (d *Document) Versions() ([]Version, error) {
	rids, err := d.eng.tVersions.LookupEq("doc", int64(d.id))
	if err != nil {
		return nil, err
	}
	out := make([]Version, 0, len(rids))
	for _, rid := range rids {
		row, err := d.eng.tVersions.Get(nil, rid)
		if err != nil {
			continue
		}
		out = append(out, Version{
			ID:     util.ID(row[0].(int64)),
			Name:   row[2].(string),
			Author: row[3].(string),
			At:     row[4].(time.Time),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// VersionText reconstructs the document text as of the given version,
// against the latest committed snapshot: the reconstruction never holds
// the document lock.
func (d *Document) VersionText(versionID util.ID) (string, error) {
	return d.Snapshot().VersionText(versionID)
}

// textAt reconstructs the text at an arbitrary instant (time travel over
// the editing history), against the latest committed snapshot. The first
// pre-horizon reconstruction after open loads the lazily parked cold
// archive.
func (d *Document) textAt(t time.Time) string {
	return d.timeTravelTree(d.snap.Load().snap.t).TextAt(t)
}

// ReadEvent is one recorded read of a document.
type ReadEvent struct {
	Doc  util.ID
	User string
	At   time.Time
}

// readEvents returns all recorded reads of the document, oldest first.
func (d *Document) readEvents() ([]ReadEvent, error) {
	return d.eng.ReadEventsOf(d.id)
}

// ReadEventsOf returns all recorded reads of a document.
func (e *Engine) ReadEventsOf(doc util.ID) ([]ReadEvent, error) {
	rids, err := e.tReads.LookupEq("doc", int64(doc))
	if err != nil {
		return nil, err
	}
	out := make([]ReadEvent, 0, len(rids))
	for _, rid := range rids {
		row, err := e.tReads.Get(nil, rid)
		if err != nil {
			continue
		}
		out = append(out, ReadEvent{
			Doc:  util.ID(row[1].(int64)),
			User: row[2].(string),
			At:   row[3].(time.Time),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out, nil
}

// ReadsByUser returns all read events of one user across documents (the
// raw material for dynamic folders like "read by me this week").
func (e *Engine) ReadsByUser(user string) ([]ReadEvent, error) {
	rids, err := e.tReads.LookupEq("user", user)
	if err != nil {
		return nil, err
	}
	out := make([]ReadEvent, 0, len(rids))
	for _, rid := range rids {
		row, err := e.tReads.Get(nil, rid)
		if err != nil {
			continue
		}
		out = append(out, ReadEvent{
			Doc:  util.ID(row[1].(int64)),
			User: row[2].(string),
			At:   row[3].(time.Time),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out, nil
}
