// Package breaker is a three-state circuit breaker for a serving layer
// that fronts a fallible backend: internal/server wraps one around its
// engine.
// Threshold consecutive failures trip it open, open requests fast-fail
// with ErrOpen for a cooldown, then a single half-open probe decides
// between closing (success) and re-opening (failure).
package breaker

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOpen marks a request rejected without being attempted because the
// breaker is open (or its single half-open probe is already in
// flight). Transports map it to 503 with a Retry-After hint.
var ErrOpen = errors.New("engine unavailable (circuit open)")

// Defaults; Options.Threshold/Cooldown override.
const (
	DefaultThreshold = 5
	DefaultCooldown  = 5 * time.Second
)

// State is the breaker's position. The numeric values are stable — the
// biodeg_breaker_state gauge exports them directly.
type State int

const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Options configures a Breaker; the zero value gets defaults from New.
type Options struct {
	// Threshold is the consecutive-failure count that trips the breaker
	// open; <= 0 means DefaultThreshold.
	Threshold int
	// Cooldown is how long the breaker rests open before admitting the
	// half-open probe; <= 0 means DefaultCooldown.
	Cooldown time.Duration
	// IsFailure classifies an outcome reported to Done: only failures
	// count toward tripping, and only nil heals. Nil means "any non-nil
	// error except context.Canceled is a failure" — callers with client
	// errors or expected sentinels substitute their own classifier.
	IsFailure func(error) bool
	// OnState observes every state transition (called with the breaker's
	// lock held; keep it a cheap gauge write).
	OnState func(State)
	// OnTrip observes each trip to open, after OnState.
	OnTrip func()
}

// Breaker is the circuit breaker. A nil *Breaker is a disabled one:
// Allow always admits, Done is a no-op.
type Breaker struct {
	opts Options

	mu       sync.Mutex
	state    State
	failures int // consecutive failures while closed
	openedAt time.Time
	probing  bool // the single half-open probe is in flight

	trips     atomic.Int64
	fastFails atomic.Int64
}

// New builds a Breaker from opts.
func New(opts Options) *Breaker {
	if opts.Threshold <= 0 {
		opts.Threshold = DefaultThreshold
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = DefaultCooldown
	}
	if opts.IsFailure == nil {
		opts.IsFailure = func(err error) bool {
			return err != nil && !errors.Is(err, context.Canceled)
		}
	}
	return &Breaker{opts: opts}
}

// setState records a transition (callers hold b.mu).
func (b *Breaker) setState(s State) {
	b.state = s
	if b.opts.OnState != nil {
		b.opts.OnState(s)
	}
}

// Allow asks to start one attempt. It returns ErrOpen while the breaker
// is open (or a half-open probe is already in flight); every admitted
// attempt must report its outcome through Done.
func (b *Breaker) Allow() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Open:
		if time.Since(b.openedAt) < b.opts.Cooldown {
			b.fastFails.Add(1)
			return ErrOpen
		}
		// Cooldown elapsed: this caller becomes the half-open probe.
		b.setState(HalfOpen)
		b.probing = true
		return nil
	case HalfOpen:
		if b.probing {
			b.fastFails.Add(1)
			return ErrOpen
		}
		b.probing = true
		return nil
	default:
		return nil
	}
}

// Done reports an admitted attempt's outcome. Only IsFailure outcomes
// count toward tripping; non-failures that are also non-nil (client
// errors, cancellations) neither trip nor heal.
func (b *Breaker) Done(err error) {
	if b == nil {
		return
	}
	fail := b.opts.IsFailure(err)
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.probing = false
		if fail {
			b.trip()
		} else if err == nil {
			b.setState(Closed)
			b.failures = 0
		}
	case Closed:
		if fail {
			b.failures++
			if b.failures >= b.opts.Threshold {
				b.trip()
			}
		} else if err == nil {
			b.failures = 0
		}
	}
}

// trip opens the breaker (callers hold b.mu).
func (b *Breaker) trip() {
	b.setState(Open)
	b.openedAt = time.Now()
	b.failures = 0
	b.trips.Add(1)
	if b.opts.OnTrip != nil {
		b.opts.OnTrip()
	}
}

// State reports the breaker's current position (Closed for nil).
func (b *Breaker) State() State {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// RetryAfter renders the remaining cooldown as whole seconds (>= 1)
// for the Retry-After header.
func (b *Breaker) RetryAfter() string {
	if b == nil {
		return "1"
	}
	b.mu.Lock()
	remain := b.opts.Cooldown - time.Since(b.openedAt)
	b.mu.Unlock()
	secs := int(remain.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// Status is the reporting snapshot (/v1/faultz).
type Status struct {
	Enabled   bool    `json:"enabled"`
	State     string  `json:"state"`
	Failures  int     `json:"consecutive_failures"`
	Threshold int     `json:"threshold"`
	CooldownS float64 `json:"cooldown_s"`
	Trips     int64   `json:"trips"`
	FastFails int64   `json:"fast_fails"`
}

// Status snapshots the breaker for reporting.
func (b *Breaker) Status() Status {
	if b == nil {
		return Status{Enabled: false, State: "disabled"}
	}
	b.mu.Lock()
	st := Status{
		Enabled:   true,
		State:     b.state.String(),
		Failures:  b.failures,
		Threshold: b.opts.Threshold,
		CooldownS: b.opts.Cooldown.Seconds(),
	}
	b.mu.Unlock()
	st.Trips = b.trips.Load()
	st.FastFails = b.fastFails.Load()
	return st
}
