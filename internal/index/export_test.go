package index

import "tendax/internal/util"

// Stall blocks every fold and refresh until the returned release is
// called: events published meanwhile pile up in the bounded subscription
// queues, which is how the tests force a shed of a chosen size.
func (s *Service) Stall() (release func()) {
	s.mu.Lock()
	return s.mu.Unlock
}

// RefreshStalled refreshes doc the way Query does, on a service the caller
// holds stalled — with events the stall kept from being folded still
// queued, the latest snapshot is ahead of them.
func (s *Service) RefreshStalled(doc util.ID) {
	s.dirty[doc] = true
	s.flushDirtyLocked(true)
}
