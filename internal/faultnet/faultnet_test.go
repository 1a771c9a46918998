package faultnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRetryJitterDeterministic pins the backoff schedule: under a fixed
// seed the jitter sequence replays exactly, and every delay respects the
// full-jitter bound min(MaxDelay, BaseDelay<<attempt).
func TestRetryJitterDeterministic(t *testing.T) {
	run := func() []time.Duration {
		var sleeps []time.Duration
		p := &RetryPolicy{
			Attempts:  6,
			BaseDelay: 10 * time.Millisecond,
			MaxDelay:  80 * time.Millisecond,
			Seed:      42,
			Sleep:     func(d time.Duration) { sleeps = append(sleeps, d) },
		}
		err := p.Do(func(int) (error, bool) { return errors.New("boom"), true })
		if err == nil {
			t.Fatal("expected error after exhaustion")
		}
		return sleeps
	}
	first := run()
	second := run()
	if len(first) != 5 {
		t.Fatalf("sleeps = %d, want 5 (6 attempts)", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("sleep[%d]: %v vs %v — jitter not deterministic under seed", i, first[i], second[i])
		}
		bound := 10 * time.Millisecond << uint(i)
		if bound > 80*time.Millisecond {
			bound = 80 * time.Millisecond
		}
		if first[i] < 0 || first[i] >= bound {
			t.Fatalf("sleep[%d] = %v, want in [0, %v)", i, first[i], bound)
		}
	}
}

type typedErr struct{ code int }

func (e *typedErr) Error() string { return fmt.Sprintf("typed error %d", e.code) }

// TestRetryExhaustionReturnsLastTypedError verifies the budget-exhausted
// path hands back the final attempt's error with its concrete type
// intact, including when it arrived wrapped in a Retry-After shell.
func TestRetryExhaustionReturnsLastTypedError(t *testing.T) {
	p := &RetryPolicy{Attempts: 3, Seed: 1, Sleep: func(time.Duration) {}}
	calls := 0
	err := p.Do(func(attempt int) (error, bool) {
		calls++
		return &Delayed{After: time.Millisecond, Err: &typedErr{code: attempt}}, true
	})
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	var te *typedErr
	if !errors.As(err, &te) {
		t.Fatalf("err = %T %v, want *typedErr", err, err)
	}
	if te.code != 2 {
		t.Fatalf("code = %d, want last attempt's 2", te.code)
	}
	if _, ok := err.(*Delayed); ok {
		t.Fatal("exhaustion should unwrap the Delayed shell")
	}
}

// TestRetryTerminalErrorStopsEarly: a non-retryable error ends the loop
// on the spot.
func TestRetryTerminalErrorStopsEarly(t *testing.T) {
	p := &RetryPolicy{Attempts: 5, Sleep: func(time.Duration) {}}
	calls := 0
	want := &typedErr{code: 7}
	err := p.Do(func(int) (error, bool) {
		calls++
		return want, false
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want the terminal error", err)
	}
}

// TestRetryHappyPathZeroAlloc pins the contract that lets the resilient
// wrappers sit on the act hot path: a first-attempt success allocates
// nothing.
func TestRetryHappyPathZeroAlloc(t *testing.T) {
	p := &RetryPolicy{Attempts: 4}
	fn := func(int) (error, bool) { return nil, false }
	allocs := testing.AllocsPerRun(1000, func() {
		if err := p.Do(fn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("happy path allocates %.1f/op, want 0", allocs)
	}
}

// TestRetryHonorsDelayed: a server-requested delay replaces jitter for
// that retry and is capped.
func TestRetryHonorsDelayed(t *testing.T) {
	var sleeps []time.Duration
	p := &RetryPolicy{Attempts: 3, Seed: 9, Sleep: func(d time.Duration) { sleeps = append(sleeps, d) }}
	base := errors.New("shed")
	err := p.Do(func(attempt int) (error, bool) {
		switch attempt {
		case 0:
			return &Delayed{After: 50 * time.Millisecond, Err: base}, true
		case 1:
			return &Delayed{After: time.Hour, Err: base}, true
		}
		return nil, false
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sleeps) != 2 {
		t.Fatalf("sleeps = %v, want 2 entries", sleeps)
	}
	if sleeps[0] != 50*time.Millisecond {
		t.Fatalf("sleep[0] = %v, want the advertised 50ms", sleeps[0])
	}
	if sleeps[1] != maxRetryAfter {
		t.Fatalf("sleep[1] = %v, want capped at %v", sleeps[1], maxRetryAfter)
	}
}

func TestRetryableStatus(t *testing.T) {
	for code, want := range map[int]bool{
		http.StatusOK: false, http.StatusBadRequest: false, http.StatusNotFound: false,
		http.StatusInternalServerError: false, http.StatusTooManyRequests: true,
		http.StatusBadGateway: true, http.StatusServiceUnavailable: true,
		http.StatusGatewayTimeout: true,
	} {
		if got := RetryableStatus(code); got != want {
			t.Errorf("RetryableStatus(%d) = %v, want %v", code, got, want)
		}
	}
}

func TestRetryAfterDelay(t *testing.T) {
	h := http.Header{}
	if _, ok := RetryAfterDelay(h); ok {
		t.Fatal("no header should parse as absent")
	}
	h.Set("Retry-After", "1")
	if d, ok := RetryAfterDelay(h); !ok || d != time.Second {
		t.Fatalf("got %v %v, want 1s", d, ok)
	}
	h.Set("Retry-After", "3600")
	if d, _ := RetryAfterDelay(h); d != maxRetryAfter {
		t.Fatalf("got %v, want capped %v", d, maxRetryAfter)
	}
	h.Set("Retry-After", "soon")
	if _, ok := RetryAfterDelay(h); ok {
		t.Fatal("non-integer should parse as absent")
	}
}

// TestBreakerStateMachine walks closed → open → half-open → closed and
// the half-open failure reopen.
func TestBreakerStateMachine(t *testing.T) {
	b := &Breaker{Threshold: 3, Cooldown: 10 * time.Millisecond}
	if !b.Allow() || b.State() != "closed" {
		t.Fatal("new breaker should be closed and allowing")
	}
	b.Failure()
	b.Failure()
	if b.Open() {
		t.Fatal("below threshold should stay closed")
	}
	b.Failure()
	if !b.Open() || b.State() != "open" {
		t.Fatal("threshold consecutive failures should trip")
	}
	if b.Allow() {
		t.Fatal("open breaker inside cooldown must refuse")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
	b.Failure() // in flight when it tripped: already answered for
	if b.State() != "open" || b.Trips() != 1 || b.ConsecutiveFailures() != 3 {
		t.Fatalf("a failure while open changed the breaker: %s, %d trips, run %d", b.State(), b.Trips(), b.ConsecutiveFailures())
	}
	time.Sleep(15 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown elapsed: one probe should be admitted")
	}
	if b.State() != "half-open" {
		t.Fatalf("state = %q, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second concurrent probe must be refused")
	}
	b.Failure()
	if b.State() != "open" || b.Trips() != 2 || b.ConsecutiveFailures() != 4 {
		t.Fatal("half-open failure should count and reopen")
	}
	time.Sleep(15 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe after second cooldown")
	}
	b.Success()
	if b.State() != "closed" || b.ConsecutiveFailures() != 0 {
		t.Fatal("probe success should close and reset the failure run")
	}
}

// TestBreakerSuccessResetsRun: interleaved successes keep a flaky-but-
// mostly-up node from tripping on scattered failures.
func TestBreakerSuccessResetsRun(t *testing.T) {
	b := &Breaker{Threshold: 3}
	for i := 0; i < 10; i++ {
		b.Failure()
		b.Failure()
		b.Success()
	}
	if b.Open() {
		t.Fatal("non-consecutive failures must not trip")
	}
}

// TestTransportInjectsDeterministically: same seed + profile → same
// injected-fault sequence against a live backend.
func TestTransportInjectsDeterministically(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	profile := Profile{DropRate: 0.3, ResetRate: 0.2, ErrorRate: 0.2}
	run := func() (string, Stats) {
		tr := NewTransport(nil, profile, 7)
		client := &http.Client{Transport: tr}
		var trace strings.Builder
		for i := 0; i < 40; i++ {
			resp, err := client.Get(srv.URL)
			switch {
			case errors.Is(err, ErrDropped):
				trace.WriteByte('d')
			case errors.Is(err, ErrReset):
				trace.WriteByte('r')
			case err != nil:
				t.Fatalf("unexpected error class: %v", err)
			case resp.StatusCode == http.StatusServiceUnavailable:
				trace.WriteByte('e')
				resp.Body.Close()
			default:
				trace.WriteByte('.')
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		return trace.String(), tr.Stats()
	}
	trace1, stats1 := run()
	trace2, stats2 := run()
	if trace1 != trace2 {
		t.Fatalf("fault sequence not deterministic:\n%s\n%s", trace1, trace2)
	}
	if stats1 != stats2 {
		t.Fatalf("stats differ: %+v vs %+v", stats1, stats2)
	}
	if stats1.Drops == 0 || stats1.Resets == 0 || stats1.Errors == 0 {
		t.Fatalf("expected every fault class at these rates over 40 reqs: %+v", stats1)
	}
	if strings.Count(trace1, "d")+strings.Count(trace1, "r")+strings.Count(trace1, "e") == 40 {
		t.Fatal("expected some clean responses too")
	}
}

// TestTransportForwardsCloseIdleConnections: a client over an injector
// releases its pool, so a server it used can shut down at once.
func TestTransportForwardsCloseIdleConnections(t *testing.T) {
	closed := make(chan struct{}, 1)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateClosed {
			closed <- struct{}{}
		}
	}
	srv.Start()
	defer srv.Close()

	client := &http.Client{Transport: NewTransport(NewHTTPTransport(4), Profile{}, 1)}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	client.CloseIdleConnections()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("the idle connection is still open: CloseIdleConnections did not reach the base transport")
	}
}

// TestTransportResetAfterApply pins the semantic that makes resets the
// hard case: the server DID apply the request before the reply was lost.
func TestTransportResetAfterApply(t *testing.T) {
	var applied int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		applied++
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	tr := NewTransport(nil, Profile{ResetRate: 1}, 1)
	client := &http.Client{Transport: tr}
	if _, err := client.Get(srv.URL); !errors.Is(err, ErrReset) {
		t.Fatalf("err = %v, want ErrReset", err)
	}
	if applied != 1 {
		t.Fatalf("applied = %d: a reset must reach the server first", applied)
	}

	// A drop, by contrast, never arrives.
	tr = NewTransport(nil, Profile{DropRate: 1}, 1)
	client = &http.Client{Transport: tr}
	if _, err := client.Get(srv.URL); !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
	if applied != 1 {
		t.Fatalf("applied = %d: a dropped request must not reach the server", applied)
	}
}

// TestLookupProfiles: every advertised name resolves.
func TestLookupProfiles(t *testing.T) {
	for _, name := range ProfileNames() {
		p, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if name != "clean" && p == (Profile{Name: p.Name}) {
			t.Fatalf("profile %q injects nothing", name)
		}
	}
	if _, ok := Lookup("carrier-pigeon"); ok {
		t.Fatal("unknown profile should not resolve")
	}
}

// TestCapProfileThrottles: a bandwidth-capped profile delivers a body
// intact and no faster than its cap — cap-<N>k at N KiB/s, the pacing the
// ABR sweeps and the cap-6k reading rest on, and mobile-3g at the 256 KiB/s
// a classroom watcher on a phone gets — and Lookup refuses a cap with no
// positive rate. mobile-3g also drops and fails a request now and then; the
// seed is one whose draws inject no fault on the one request, which the
// transport's counts confirm.
func TestCapProfileThrottles(t *testing.T) {
	body := make([]byte, 16<<10)
	for i := range body {
		body[i] = byte(i * 7)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	}))
	defer srv.Close()
	for _, tc := range []struct {
		name string
		bps  int
	}{{"cap-64k", 64 << 10}, {"mobile-3g", 256 << 10}} {
		p, ok := Lookup(tc.name)
		if !ok || p.BandwidthBps != tc.bps {
			t.Fatalf("Lookup(%s) = %+v, %v; want %d B/s", tc.name, p, ok, tc.bps)
		}
		tr := NewTransport(nil, p, 1)
		client := &http.Client{Transport: tr}
		start := time.Now()
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if st := tr.Stats(); st != (Stats{Requests: 1}) {
			t.Fatalf("%s: the seed's draws injected faults: %+v", tc.name, st)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("%s: throttled body: %d bytes, not the %d sent", tc.name, len(got), len(body))
		}
		// The profile's fixed latency is added to the request; the cap
		// paces the body after it.
		if floor := p.Latency + time.Duration(float64(time.Second)*0.9*float64(len(body))/float64(p.BandwidthBps)); elapsed < floor {
			t.Fatalf("%s: %d bytes at %d B/s arrived in %v, under %v", tc.name, len(body), p.BandwidthBps, elapsed, floor)
		}
	}
	for _, name := range []string{"cap-0k", "cap-k", "cap--4k", "cap-64"} {
		if _, ok := Lookup(name); ok {
			t.Errorf("Lookup(%q) resolved", name)
		}
	}
}

// TestDefaultHTTPClientHasTimeouts: the shared client must not be the
// timeout-free http.DefaultClient in disguise.
func TestDefaultHTTPClientHasTimeouts(t *testing.T) {
	c := DefaultHTTPClient()
	if c == http.DefaultClient {
		t.Fatal("DefaultHTTPClient returned http.DefaultClient")
	}
	tr, ok := c.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("transport is %T, want *http.Transport", c.Transport)
	}
	if tr.ResponseHeaderTimeout == 0 || tr.TLSHandshakeTimeout == 0 {
		t.Fatal("transport is missing header/TLS timeouts")
	}
	if DefaultHTTPClient() != c {
		t.Fatal("DefaultHTTPClient should return the shared instance")
	}
}
