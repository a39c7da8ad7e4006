// Package container models the lightweight isolation MemFSS wraps around
// the store processes it runs on victim nodes. Paper §III-F has Linux
// containers cap the CPU, memory and network a scavenging store may use;
// this package implements two of the three caps (Go offers no portable
// stdlib CPU jail, so there is no CPU cap):
//
//   - a memory ceiling, enforced by the store's own cap (resize-able at
//     runtime when the tenant needs memory back), and
//   - a network-bandwidth throttle, a token bucket the MemFSS client pulls
//     from before moving bytes to or from a victim store, so scavenging
//     traffic never exceeds its budget regardless of application load.
package container

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Limits is the resource budget granted to a scavenging store on a victim
// node. Zero values mean "unlimited" for that resource.
type Limits struct {
	// MemoryBytes caps the store's accounted memory.
	MemoryBytes int64
	// NetworkBytesPerSec caps scavenging traffic to/from the node.
	NetworkBytesPerSec int64
}

// Validate reports whether the limits are well-formed.
func (l Limits) Validate() error {
	if l.MemoryBytes < 0 || l.NetworkBytesPerSec < 0 {
		return fmt.Errorf("container: negative limit %+v", l)
	}
	return nil
}

// ErrThrottleClosed is returned by Take after Close.
var ErrThrottleClosed = errors.New("container: throttle closed")

// Throttle is a token bucket metering bytes per second. The zero value is
// unusable; construct with NewThrottle. A nil *Throttle is a valid
// unlimited throttle (Take returns immediately).
type Throttle struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second
	burst  float64
	tokens float64
	last   time.Time
	closed bool
	now    func() time.Time
	sleep  func(time.Duration)
}

// NewThrottle returns a throttle admitting bytesPerSec bytes per second
// with a burst of one second's worth (minimum 64 KiB so single requests
// are never deadlocked). bytesPerSec must be positive.
func NewThrottle(bytesPerSec int64) (*Throttle, error) {
	if bytesPerSec <= 0 {
		return nil, fmt.Errorf("container: rate %d must be positive", bytesPerSec)
	}
	burst := float64(bytesPerSec)
	if burst < 64<<10 {
		burst = 64 << 10
	}
	return &Throttle{
		rate:   float64(bytesPerSec),
		burst:  burst,
		tokens: burst,
		last:   time.Now(),
		now:    time.Now,
		sleep:  time.Sleep,
	}, nil
}

// Take blocks until n bytes of budget are available, then consumes them.
// Requests larger than the burst are admitted in burst-size installments.
// The installment size is re-read from the live rate on every iteration, so
// a waiter blocked across a SetRate observes the new budget rather than the
// snapshot it slept on. A nil throttle admits immediately.
func (t *Throttle) Take(n int64) error {
	if t == nil || n <= 0 {
		return nil
	}
	remaining := float64(n)
	for remaining > 0 {
		taken, err := t.takeChunk(remaining)
		if err != nil {
			return err
		}
		remaining -= taken
	}
	return nil
}

// takeChunk admits up to want bytes (clamped to the current burst) and
// returns how many it consumed. The clamp happens under the lock on every
// wake-up: if SetRate shrinks the burst while we sleep, the next iteration
// asks for a chunk the new bucket can actually satisfy, so a resize can
// never strand a waiter behind an unfillable request.
func (t *Throttle) takeChunk(want float64) (float64, error) {
	for {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return 0, ErrThrottleClosed
		}
		n := want
		if n > t.burst {
			n = t.burst
		}
		now := t.now()
		elapsed := now.Sub(t.last).Seconds()
		if elapsed > 0 {
			t.tokens += elapsed * t.rate
			if t.tokens > t.burst {
				t.tokens = t.burst
			}
			t.last = now
		}
		if t.tokens >= n {
			t.tokens -= n
			t.mu.Unlock()
			return n, nil
		}
		deficit := n - t.tokens
		wait := time.Duration(deficit / t.rate * float64(time.Second))
		t.mu.Unlock()
		// Clamp the sleep so long waits poll the closed flag and the live
		// rate: Close and SetRate both take effect within one poll interval.
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		if wait > 100*time.Millisecond {
			wait = 100 * time.Millisecond
		}
		t.sleep(wait)
	}
}

// SetRate changes the throttle's rate at runtime. Blocked waiters observe
// the new rate on their next wake-up: refill speed, burst ceiling, and
// installment size all derive from the live fields, not from values captured
// when Take was called. Banked tokens are clamped to the new burst so a
// shrink cannot be dodged by budget saved under the old rate.
func (t *Throttle) SetRate(bytesPerSec int64) error {
	if t == nil {
		return errors.New("container: SetRate on nil throttle")
	}
	if bytesPerSec <= 0 {
		return fmt.Errorf("container: rate %d must be positive", bytesPerSec)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrThrottleClosed
	}
	// Settle the bucket at the old rate up to now so the rate change is not
	// applied retroactively to time already slept.
	now := t.now()
	if elapsed := now.Sub(t.last).Seconds(); elapsed > 0 {
		t.tokens += elapsed * t.rate
		if t.tokens > t.burst {
			t.tokens = t.burst
		}
		t.last = now
	}
	t.rate = float64(bytesPerSec)
	t.burst = float64(bytesPerSec)
	if t.burst < 64<<10 {
		t.burst = 64 << 10
	}
	if t.tokens > t.burst {
		t.tokens = t.burst
	}
	return nil
}

// Close unblocks all waiters with ErrThrottleClosed and makes further Take
// calls fail. It is idempotent.
func (t *Throttle) Close() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
}

// Rate returns the configured bytes-per-second rate (0 for nil).
func (t *Throttle) Rate() int64 {
	if t == nil {
		return 0
	}
	return int64(t.rate)
}
