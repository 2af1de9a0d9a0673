package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"misar/internal/service"
)

// RetryPolicy shapes the Fleet client's resilience behavior. The zero value
// gets sensible defaults from NewFleet.
type RetryPolicy struct {
	// MaxAttempts is the total submission attempts across replicas before
	// giving up; < 1 means len(addrs)+1 (every node once, plus one retry
	// back on the first after backoff).
	MaxAttempts int
	// BaseBackoff is the delay before the second attempt; successive
	// retries double it (with jitter) up to MaxBackoff. <= 0 means 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff schedule. <= 0 means 5s.
	MaxBackoff time.Duration
	// AttemptTimeout bounds the silence tolerated within one attempt: if no
	// NDJSON event (heartbeats included) arrives for this long, the attempt
	// is abandoned and the next replica tried. It is an activity watchdog,
	// not a total-duration cap — a healthy server heartbeats every few
	// hundred milliseconds no matter how long the simulation runs. <= 0
	// means 30s.
	AttemptTimeout time.Duration
}

func (p RetryPolicy) withDefaults(nodes int) RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = nodes + 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = 30 * time.Second
	}
	return p
}

// Fleet is a resilient client over a set of misar-served replicas: it
// spreads submissions round-robin, bounds each attempt with an activity
// watchdog, fails over to the next replica on connection errors, truncated
// streams, 429s, and 5xx responses, backs off exponentially with jitter
// (honoring the server's Retry-After). Deterministic failures — 4xx rejections and jobs that ran and failed —
// are returned immediately; retrying them elsewhere would reproduce them.
//
// Trace identity survives failover: every attempt carries the submission
// context's trace ID (obs.WithTrace), so the attempt that finally succeeds
// shares a timeline with the ones that died, and the terminal event's spans
// all bear one ID.
type Fleet struct {
	addrs   []string
	clients []*Client
	policy  RetryPolicy
	next    atomic.Uint64 // round-robin start cursor

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter
}

// NewFleet builds a resilient client over addrs (each "host:port" or a full
// http:// URL). At least one address is required.
func NewFleet(addrs []string, policy RetryPolicy) *Fleet {
	if len(addrs) == 0 {
		panic("client: NewFleet needs at least one address")
	}
	f := &Fleet{
		addrs:  addrs,
		policy: policy.withDefaults(len(addrs)),
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, a := range addrs {
		f.clients = append(f.clients, New(a))
	}
	return f
}

// errAttemptTimeout marks an attempt abandoned by the activity watchdog —
// retryable, unlike a parent-context cancellation.
var errAttemptTimeout = errors.New("no stream activity within the attempt timeout")

// Retryable reports whether err is worth another attempt on a different
// replica: transport failures, watchdog timeouts, truncated streams, 429
// backpressure, and 5xx are; deterministic rejections (other 4xx), jobs
// that ran and failed (JobError), and parent-context cancellation are not.
func Retryable(err error) bool {
	var je *JobError
	if errors.As(err, &je) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusTooManyRequests || ae.Status >= 500
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// Submit posts the job with retry and failover, following the first
// successful NDJSON stream to its terminal event. onEvent observes every
// event of every attempt.
func (f *Fleet) Submit(ctx context.Context, req service.JobRequest, onEvent func(service.JobEvent)) (*service.JobEvent, error) {
	n := len(f.clients)
	start := int(f.next.Add(1)-1) % n
	var lastErr error
	for attempt := 0; attempt < f.policy.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ev, err := f.attempt(ctx, (start+attempt)%n, req, onEvent)
		if err == nil {
			return ev, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !Retryable(err) {
			return nil, err
		}
		lastErr = err
		delay := f.backoff(attempt)
		var ae *APIError
		if errors.As(err, &ae) && ae.RetryAfterDuration > delay {
			delay = ae.RetryAfterDuration
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(delay):
		}
	}
	return nil, fmt.Errorf("fleet: gave up after %d attempts: %w", f.policy.MaxAttempts, lastErr)
}

// attempt is one bounded submission to one replica: an activity watchdog
// cancels the attempt if the stream goes silent for AttemptTimeout (a
// SIGKILLed or wedged node stops heartbeating long before TCP gives up).
func (f *Fleet) attempt(ctx context.Context, idx int, req service.JobRequest, onEvent func(service.JobEvent)) (*service.JobEvent, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	var timedOut atomic.Bool
	watchdog := time.AfterFunc(f.policy.AttemptTimeout, func() {
		timedOut.Store(true)
		cancel()
	})
	defer watchdog.Stop()
	observe := func(ev service.JobEvent) {
		watchdog.Reset(f.policy.AttemptTimeout)
		if onEvent != nil {
			onEvent(ev)
		}
	}
	ev, err := f.clients[idx].Submit(actx, req, observe)
	if err != nil && timedOut.Load() && ctx.Err() == nil {
		return nil, fmt.Errorf("fleet: %s: %w", f.addrs[idx], errAttemptTimeout)
	}
	return ev, err
}

// backoff returns the jittered exponential delay before retry `attempt`:
// uniform in [d/2, d] where d doubles from BaseBackoff up to MaxBackoff, so
// a refused thundering herd decorrelates instead of re-arriving in phase.
func (f *Fleet) backoff(attempt int) time.Duration {
	d := f.policy.BaseBackoff
	for i := 0; i < attempt && d < f.policy.MaxBackoff; i++ {
		d *= 2
	}
	if d > f.policy.MaxBackoff {
		d = f.policy.MaxBackoff
	}
	f.rngMu.Lock()
	j := time.Duration(f.rng.Int63n(int64(d/2) + 1))
	f.rngMu.Unlock()
	return d/2 + j
}
