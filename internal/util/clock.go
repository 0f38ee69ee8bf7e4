package util

import (
	"sync"
	"time"
)

// Clock abstracts wall-clock time so tests and deterministic workloads can
// control it. Production code uses SystemClock; tests use FakeClock.
type Clock interface {
	// Now returns the current time. Successive calls never go backwards.
	Now() time.Time
}

// SystemClock reads the operating system clock, made monotone per instance.
type SystemClock struct {
	mu   sync.Mutex
	last time.Time
}

// NewSystemClock returns a Clock backed by the OS clock.
func NewSystemClock() *SystemClock { return &SystemClock{} }

// Now implements Clock.
func (c *SystemClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	if !now.After(c.last) {
		now = c.last.Add(time.Nanosecond)
	}
	c.last = now
	return now
}

// FakeClock is a manually advanced clock for tests and deterministic
// workload generation. Each call to Now advances the clock by the configured
// tick so timestamps remain strictly increasing.
type FakeClock struct {
	mu   sync.Mutex
	now  time.Time
	tick time.Duration
}

// NewFakeClock returns a FakeClock starting at start, advancing by tick per
// Now call. A zero tick defaults to one millisecond.
//
//tendax:allow-testonly ROADMAP simulation (c): the deterministic clock a simulated run drives
func NewFakeClock(start time.Time, tick time.Duration) *FakeClock {
	if tick <= 0 {
		tick = time.Millisecond
	}
	return &FakeClock{now: start, tick: tick}
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.tick)
	return c.now
}

// Advance moves the clock forward by d without producing a reading.
//
//tendax:allow-testonly ROADMAP simulation (c): the deterministic clock a simulated run drives
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// Peek returns the current time without advancing the clock.
//
//tendax:allow-testonly ROADMAP simulation (c): the deterministic clock a simulated run drives
func (c *FakeClock) Peek() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}
