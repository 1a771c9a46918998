package faultnet

import (
	"sync"
	"time"
)

// Breaker is a consecutive-failure circuit breaker.
//
//	closed    — traffic flows; Failure() counts consecutive failures and
//	            trips to open at Threshold.
//	open      — Allow() refuses everything until Cooldown has elapsed,
//	            then admits exactly one probe (half-open). A failure here
//	            is one the breaker already answered for (a request in
//	            flight when it tripped, or one sent past it) and does not
//	            count.
//	half-open — the probe is in flight: Success() closes the breaker,
//	            Failure() counts, reopens it and restarts the cooldown.
//
// The count therefore grows by at most one per Cooldown once the breaker
// has tripped, so a long failure run measures how long a node has been
// down, not how much traffic hit it meanwhile.
//
// The gateway keeps one per node: an open breaker diverts a session to
// the rescue/recover path instead of burning its retry budget against a
// node that has already failed several times in a row.
type Breaker struct {
	Threshold int           // consecutive failures to trip (default 5)
	Cooldown  time.Duration // open period before a probe (default 500ms)

	mu       sync.Mutex
	state    breakerState
	failures int // consecutive, lifetime under mu
	openedAt time.Time
	trips    int64
}

type breakerState int8

const (
	stateClosed breakerState = iota
	stateOpen
	stateHalfOpen
)

func (b *Breaker) threshold() int {
	if b.Threshold <= 0 {
		return 5
	}
	return b.Threshold
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return 500 * time.Millisecond
	}
	return b.Cooldown
}

// Allow reports whether a request may proceed. When the breaker is open
// and the cooldown has elapsed, Allow admits the caller as the single
// half-open probe — so routing through Allow *is* the probe protocol.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return true
	case stateOpen:
		if time.Since(b.openedAt) >= b.cooldown() {
			b.state = stateHalfOpen
			return true
		}
		return false
	default: // half-open: one probe is already out
		return false
	}
}

// Success records a successful call, closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = stateClosed
	b.failures = 0
}

// Failure records a failed call; it may trip the breaker. An open
// breaker ignores it.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateHalfOpen:
		b.failures++
		b.state = stateOpen
		b.openedAt = time.Now()
		b.trips++
	case stateClosed:
		b.failures++
		if b.failures >= b.threshold() {
			b.state = stateOpen
			b.openedAt = time.Now()
			b.trips++
		}
	}
}

// Open reports whether the breaker currently refuses ordinary traffic.
func (b *Breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != stateClosed
}

// State names the current state for metrics and logs.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// ConsecutiveFailures returns the current consecutive-failure run: the
// failures counted since the last success.
func (b *Breaker) ConsecutiveFailures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failures
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
