package index

import "tendax/internal/util"

// Shard returns the per-shard service at position i.
func (c *Cluster) Shard(i int) *Service { return c.svcs[i] }

// Stall blocks every fold and refresh until the returned release is
// called: events published meanwhile wait in the op ring behind the
// stalled cursors, and more of them than the ring retains force a ring
// miss — which is how the tests choose between the two.
func (s *Service) Stall() (release func()) {
	s.mu.Lock()
	return s.mu.Unlock
}

// RefreshStalled refreshes doc the way Query does, on a service the caller
// holds stalled — with events the stall kept from being folded still
// unread, the latest snapshot is ahead of them.
func (s *Service) RefreshStalled(doc util.ID) {
	s.dirty[doc] = true
	s.flushDirtyLocked()
}

// StatsStalled is Stats on a service the caller holds stalled.
func (s *Service) StatsStalled() Stats { return s.statsLocked() }
