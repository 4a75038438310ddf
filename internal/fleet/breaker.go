package fleet

import (
	"sync"
	"time"
)

// Breaker is a per-shard circuit breaker. Consecutive failures open it;
// while open, Allow reports false so callers skip the shard instead of
// burning their latency budget on a peer that is down. After the cooldown
// one probe is let through (half-open): success closes the breaker,
// failure re-opens it for another cooldown. The zero value is usable and
// uses the defaults below. Safe for concurrent use.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the breaker
	// (default 3).
	Threshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (default 1s).
	Cooldown time.Duration

	mu          sync.Mutex
	consecutive int
	openedAt    time.Time
	open        bool
	probing     bool             // a half-open probe is in flight
	now         func() time.Time // test hook; nil means time.Now
}

func (b *Breaker) threshold() int {
	if b.Threshold > 0 {
		return b.Threshold
	}
	return 3
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown > 0 {
		return b.Cooldown
	}
	return time.Second
}

func (b *Breaker) clock() time.Time {
	if b.now != nil {
		return b.now()
	}
	return time.Now()
}

// Allow reports whether a request may be sent to the shard right now.
// While open it returns false until the cooldown lapses, then true for
// exactly one half-open probe at a time.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.clock().Sub(b.openedAt) < b.cooldown() {
		return false
	}
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// Success records a successful call and closes the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	b.open = false
	b.probing = false
}

// Failure records a failed call. The breaker opens at Threshold
// consecutive failures, and a failed half-open probe re-opens it
// immediately for another cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	reopen := b.open && b.probing // failed probe
	if b.consecutive >= b.threshold() || reopen {
		b.open = true
		b.probing = false
		b.openedAt = b.clock()
	}
}

// Open reports whether the breaker is currently open (cooldown pending or
// probe outstanding).
func (b *Breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}
