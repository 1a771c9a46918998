// Package faultnet is a deterministic, seed-driven network fault layer
// plus the resilience primitives that survive it.
//
// The injection side wraps an http.RoundTripper with added latency,
// bandwidth caps, request loss, connection resets, slow responses,
// synthesized 5xx bursts and periodic partitions. Every decision comes from
// one seeded RNG, so a chaos run replays exactly given the same seed —
// flaky networks, not flaky tests.
//
// The survival side is the one hop every outbound request in the repo
// takes (Exchange: a fresh deadline and trace span per attempt, the reply
// handled inside it), the retry policy it runs under (exponential backoff,
// full jitter, Retry-After awareness), a consecutive-failure circuit
// breaker, and a default HTTP client with real timeouts in place of
// http.DefaultClient.
package faultnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Profile describes one simulated network condition. The zero value is a
// clean network. Rates are probabilities in [0,1] drawn per request.
type Profile struct {
	Name string

	Latency time.Duration // fixed added latency per request
	Jitter  time.Duration // extra uniform [0,Jitter) latency

	// BandwidthBps caps response-body throughput in bytes/second
	// (0 = unlimited).
	BandwidthBps int

	DropRate  float64 // request lost before reaching the server
	ResetRate float64 // server applies the request, reply is lost
	ErrorRate float64 // synthesized 503 (the server never sees it)

	SlowRate float64 // request stalls for SlowFor before proceeding
	SlowFor  time.Duration

	// OutageEvery/OutageFor model a periodic hard partition: for the
	// first OutageFor of every OutageEvery window (measured from
	// transport creation) every request fails.
	OutageEvery time.Duration
	OutageFor   time.Duration
}

// Lookup resolves a named profile. Known names: "clean", "wifi-flaky",
// "mobile-3g", "partition", plus the parametrized bandwidth caps
// "cap-<N>k" (an otherwise-clean link throttled to N KiB/s — the ABR
// test rig's way of sweeping a bandwidth spread, e.g. cap-24k through
// cap-240k for a 10× spread).
func Lookup(name string) (Profile, bool) {
	if p, ok := capProfile(name); ok {
		return p, true
	}
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "clean", "none":
		return Profile{Name: "clean"}, true
	case "wifi-flaky":
		// Crowded classroom wifi: short latency spikes, a few percent of
		// requests lost or reset, occasional AP-side stalls and errors.
		return Profile{
			Name:      "wifi-flaky",
			Latency:   2 * time.Millisecond,
			Jitter:    8 * time.Millisecond,
			DropRate:  0.02,
			ResetRate: 0.01,
			ErrorRate: 0.02,
			SlowRate:  0.02,
			SlowFor:   50 * time.Millisecond,
		}, true
	case "mobile-3g":
		// High fixed latency, tight bandwidth, rare loss.
		return Profile{
			Name:         "mobile-3g",
			Latency:      40 * time.Millisecond,
			Jitter:       20 * time.Millisecond,
			BandwidthBps: 256 << 10,
			DropRate:     0.005,
			ErrorRate:    0.005,
		}, true
	case "partition":
		// Mostly clean, but the network goes away entirely for 400ms out
		// of every 2s — the split-brain drill.
		return Profile{
			Name:        "partition",
			Latency:     time.Millisecond,
			Jitter:      2 * time.Millisecond,
			OutageEvery: 2 * time.Second,
			OutageFor:   400 * time.Millisecond,
		}, true
	}
	return Profile{}, false
}

// capProfile parses the parametrized "cap-<N>k" profile family: a clean
// link with response throughput capped at N KiB/s and a token 5ms of
// latency so it behaves like a link rather than loopback.
func capProfile(name string) (Profile, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	rest, ok := strings.CutPrefix(name, "cap-")
	if !ok {
		return Profile{}, false
	}
	kib, ok := strings.CutSuffix(rest, "k")
	if !ok {
		return Profile{}, false
	}
	n, err := strconv.Atoi(kib)
	if err != nil || n <= 0 {
		return Profile{}, false
	}
	return Profile{
		Name:         name,
		Latency:      5 * time.Millisecond,
		BandwidthBps: n << 10,
	}, true
}

// ProfileNames lists the named profiles in display order (the
// parametrized cap-<N>k family is accepted by Lookup but not
// enumerable).
func ProfileNames() []string {
	return []string{"clean", "wifi-flaky", "mobile-3g", "partition"}
}

// Typed injection errors. Dropped and partitioned requests never reached
// the server; a reset means the server (may have) applied the request and
// only the reply was lost — the case idempotency machinery exists for.
var (
	ErrDropped     = errors.New("faultnet: request dropped")
	ErrReset       = errors.New("faultnet: connection reset by peer")
	ErrPartitioned = errors.New("faultnet: network partitioned")
)

// Stats counts what a Transport injected, for test assertions.
type Stats struct {
	Requests int64
	Drops    int64
	Resets   int64
	Errors   int64 // synthesized 503s
	Slow     int64
	Outages  int64
}

// Transport is an http.RoundTripper that injects a Profile's faults in
// front of a base transport. All randomness comes from one seeded RNG, so
// runs replay deterministically per (profile, seed) modulo goroutine
// interleaving.
type Transport struct {
	Base    http.RoundTripper
	Profile Profile

	mu    sync.Mutex
	rng   *rand.Rand
	start time.Time

	requests atomic.Int64
	drops    atomic.Int64
	resets   atomic.Int64
	errors   atomic.Int64
	slow     atomic.Int64
	outages  atomic.Int64
}

// NewTransport wraps base (nil = http.DefaultTransport) with profile,
// drawing all fault decisions from a RNG seeded with seed.
func NewTransport(base http.RoundTripper, profile Profile, seed int64) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{
		Base:    base,
		Profile: profile,
		rng:     rand.New(rand.NewSource(seed)),
		start:   time.Now(),
	}
}

// Stats snapshots the injected-fault counters.
func (t *Transport) Stats() Stats {
	return Stats{
		Requests: t.requests.Load(),
		Drops:    t.drops.Load(),
		Resets:   t.resets.Load(),
		Errors:   t.errors.Load(),
		Slow:     t.slow.Load(),
		Outages:  t.outages.Load(),
	}
}

// CloseIdleConnections closes the base transport's idle connections, so
// an http.Client over an injector can still release its pool.
func (t *Transport) CloseIdleConnections() {
	if c, ok := t.Base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// fate draws every per-request decision at once under one lock.
type fate struct {
	latency time.Duration
	drop    bool
	reset   bool
	err     bool
	slow    bool
	outage  bool
}

func (t *Transport) draw() fate {
	p := t.Profile
	t.mu.Lock()
	defer t.mu.Unlock()
	f := fate{latency: p.Latency}
	if p.Jitter > 0 {
		f.latency += time.Duration(t.rng.Int63n(int64(p.Jitter)))
	}
	if p.OutageEvery > 0 && time.Since(t.start)%p.OutageEvery < p.OutageFor {
		f.outage = true
		return f
	}
	if p.DropRate > 0 && t.rng.Float64() < p.DropRate {
		f.drop = true
		return f
	}
	if p.ErrorRate > 0 && t.rng.Float64() < p.ErrorRate {
		f.err = true
		return f
	}
	if p.SlowRate > 0 && t.rng.Float64() < p.SlowRate {
		f.slow = true
	}
	if p.ResetRate > 0 && t.rng.Float64() < p.ResetRate {
		f.reset = true
	}
	return f
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	f := t.draw()
	ctx := req.Context()
	if err := sleepCtx(ctx, f.latency); err != nil {
		return nil, err
	}
	switch {
	case f.outage:
		t.outages.Add(1)
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, ErrPartitioned)
	case f.drop:
		// The request never reaches the server.
		t.drops.Add(1)
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, ErrDropped)
	case f.err:
		// A 503 burst from some middlebox; deliberately no Retry-After —
		// only genuine load shedding advertises one.
		t.errors.Add(1)
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
			Body:       io.NopCloser(strings.NewReader("faultnet: injected 503\n")),
			Request:    req,
		}, nil
	}
	if f.slow {
		t.slow.Add(1)
		if err := sleepCtx(ctx, t.Profile.SlowFor); err != nil {
			return nil, err
		}
	}
	resp, err := t.Base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if f.reset {
		// The server applied the request; the reply is lost in flight.
		// This is the path that makes idempotency machinery observable.
		t.resets.Add(1)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, ErrReset)
	}
	if t.Profile.BandwidthBps > 0 {
		resp.Body = &throttledBody{rc: resp.Body, bps: t.Profile.BandwidthBps, ctx: ctx}
	}
	return resp, nil
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// throttledBody paces reads to approximate a bytes/second cap.
type throttledBody struct {
	rc  io.ReadCloser
	bps int
	ctx context.Context
}

func (t *throttledBody) Read(p []byte) (int, error) {
	// Read at most ~10ms worth of budget per call so pacing stays smooth.
	chunk := t.bps / 100
	if chunk < 1 {
		chunk = 1
	}
	if len(p) > chunk {
		p = p[:chunk]
	}
	n, err := t.rc.Read(p)
	if n > 0 {
		delay := time.Duration(n) * time.Second / time.Duration(t.bps)
		if serr := sleepCtx(t.ctx, delay); serr != nil && err == nil {
			err = serr
		}
	}
	return n, err
}

func (t *throttledBody) Close() error { return t.rc.Close() }

// WrapClient returns a copy of base (nil = DefaultHTTPClient) whose
// transport injects profile with the given seed.
func WrapClient(base *http.Client, profile Profile, seed int64) *http.Client {
	if base == nil {
		base = DefaultHTTPClient()
	}
	c := *base
	c.Transport = NewTransport(base.Transport, profile, seed)
	return &c
}

var (
	defaultClientOnce sync.Once
	defaultClient     *http.Client
)

// DefaultHTTPClient returns a shared HTTP client with real timeouts: the
// drop-in replacement for every place that used to assume
// http.DefaultClient (which never times anything out). Connection
// establishment, TLS, and response headers are individually bounded; the
// overall request deadline is left to per-request contexts so large
// streaming downloads on slow links are not cut off arbitrarily.
func DefaultHTTPClient() *http.Client {
	defaultClientOnce.Do(func() {
		defaultClient = &http.Client{Transport: NewHTTPTransport(0)}
	})
	return defaultClient
}

// NewHTTPTransport builds an *http.Transport with the repo's timeout
// defaults. maxPerHost > 0 additionally bounds per-host connections —
// the fleet sizes this to its concurrency so 200 learners do not open
// 200 sockets apiece.
func NewHTTPTransport(maxPerHost int) *http.Transport {
	tr := &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		ForceAttemptHTTP2:     true,
		MaxIdleConns:          128,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   5 * time.Second,
		ResponseHeaderTimeout: 15 * time.Second,
		ExpectContinueTimeout: time.Second,
	}
	if maxPerHost > 0 {
		tr.MaxIdleConns = maxPerHost
		tr.MaxIdleConnsPerHost = maxPerHost
		tr.MaxConnsPerHost = maxPerHost
	}
	return tr
}
