package faultnet

import (
	"errors"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// RetryPolicy runs an operation with a bounded attempt budget and
// exponential backoff with full jitter: the sleep before retry i is
// uniform in [0, min(MaxDelay, BaseDelay<<i)). Full jitter decorrelates
// a fleet of clients hammering a recovering server (they would otherwise
// retry in lockstep).
//
// The zero value is usable: 4 attempts, 10ms base, 1s cap. The happy
// path (first attempt succeeds) performs no allocation, takes no lock
// and touches no RNG — it costs the 0 allocs/op act path nothing.
type RetryPolicy struct {
	Attempts  int           // total attempts including the first (default 4)
	BaseDelay time.Duration // first backoff ceiling (default 10ms)
	MaxDelay  time.Duration // backoff ceiling (default 1s)

	// Budget, when positive, extends the retry loop past Attempts by
	// wall-clock — but only while the failure is a transport error (the
	// network, not the server, is refusing). An attempt-counted budget
	// with jittered sleeps is mathematically incapable of riding out a
	// correlated outage (every request issued during a network partition
	// burns its whole budget inside the partition); a wall-clock budget
	// longer than the outage guarantees one attempt lands after
	// connectivity returns. HTTP-status failures keep the plain attempt
	// count: a live server saying 429/503 is already load-shedding, and
	// hammering it for the whole budget would make that worse.
	Budget time.Duration

	// Seed makes the jitter sequence deterministic when non-zero; tests
	// pair it with Sleep to assert exact backoff schedules.
	Seed  int64
	Sleep func(time.Duration) // nil = time.Sleep

	mu  sync.Mutex
	rng *rand.Rand
}

// maxRetryAfter caps how long a server-advertised Retry-After can stall
// one retry, so a hostile or buggy header cannot park a client.
const maxRetryAfter = 2 * time.Second

// Delayed wraps an error with an explicit server-requested retry delay
// (a parsed Retry-After). RetryPolicy.Do honors After — capped at 2s —
// instead of its own jitter for that retry, and returns the cause, never
// the shell, so typed errors (*playsvc.Error etc.) reach the caller as
// they were.
type Delayed struct {
	After time.Duration
	Err   error
}

// Error implements error.
func (d *Delayed) Error() string { return d.Err.Error() }

// Do runs fn until it succeeds, reports a terminal error, or the attempt
// budget is exhausted; it returns fn's last error verbatim (unwrapping a
// *Delayed shell) so typed errors survive exhaustion. fn's second result
// says whether the error is worth retrying — idempotency decisions live
// at the call site, which knows what the request was.
func (p *RetryPolicy) Do(fn func(attempt int) (error, bool)) error {
	attempts := p.Attempts
	if attempts <= 0 {
		attempts = 4
	}
	began := time.Now()
	var err error
	var retry bool
	for a := 0; ; a++ {
		if a > 0 {
			p.sleep(p.delay(a-1, err))
		}
		err, retry = fn(a)
		if err == nil || !retry {
			break
		}
		if a+1 >= attempts &&
			(p.Budget <= 0 || !transportError(err) || time.Since(began) >= p.Budget) {
			break
		}
	}
	if err != nil {
		var d *Delayed
		if errors.As(err, &d) {
			return d.Err
		}
	}
	return err
}

// delay picks the sleep before the retry following failed attempt i.
func (p *RetryPolicy) delay(i int, err error) time.Duration {
	var d *Delayed
	if errors.As(err, &d) && d.After > 0 {
		if d.After > maxRetryAfter {
			return maxRetryAfter
		}
		return d.After
	}
	base := p.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = time.Second
	}
	for ; i > 0 && base < max; i-- {
		base <<= 1
	}
	if base > max {
		base = max
	}
	return time.Duration(p.rand63n(int64(base)))
}

func (p *RetryPolicy) rand63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng == nil {
		seed := p.Seed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		p.rng = rand.New(rand.NewSource(seed))
	}
	return p.rng.Int63n(n)
}

func (p *RetryPolicy) sleep(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// transportError reports whether err came from the network layer rather
// than a served HTTP response: http.Client failures arrive as *url.Error
// (wrapping injected faults, resets, refused connections and timeouts
// alike), and the typed injection errors cover raw RoundTripper use.
func transportError(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue) ||
		errors.Is(err, ErrDropped) || errors.Is(err, ErrReset) || errors.Is(err, ErrPartitioned)
}

// RetryableStatus reports whether an HTTP status is worth retrying:
// explicit backpressure (429) and the transient 5xx family. A plain 500
// is excluded — it usually marks a deterministic server bug that will
// fail identically on every attempt.
func RetryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// RetryAfterDelay parses an integer-seconds Retry-After header, bounded
// to [0, 2s] for the same reason Do caps Delayed.After.
func RetryAfterDelay(h http.Header) (time.Duration, bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	d := time.Duration(secs) * time.Second
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d, true
}
