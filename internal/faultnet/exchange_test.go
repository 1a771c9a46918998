package faultnet

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// countingRT counts the requests it forwards to the default transport.
type countingRT struct{ n int }

func (c *countingRT) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n++
	return http.DefaultTransport.RoundTrip(r)
}

// TestExchange is the one hop's contract, case by case, against a real
// HTTP server: what an attempt is (fresh deadline, fresh trace child, the
// body read inside it), what is retried (transport failures always, a
// response only when handle says so), how long a retry waits (the server's
// Retry-After through RetryPolicy.Sleep, capped) and what a nil client
// means.
func TestExchange(t *testing.T) {
	// readAll is the usual handle: a 200's body must arrive whole, a shed
	// status is retried after the server's delay, anything else is terminal.
	var got string
	readAll := func(resp *http.Response) (error, bool) {
		switch {
		case resp.StatusCode == http.StatusOK:
			b, err := io.ReadAll(resp.Body)
			got = string(b)
			return err, true
		case RetryableStatus(resp.StatusCode):
			return WithRetryAfter(resp, fmt.Errorf("shed: %s", resp.Status)), true
		}
		return fmt.Errorf("terminal: %s", resp.Status), false
	}
	root := obs.NewTrace()
	stall := make(chan struct{})
	defer close(stall)
	// partial promises five body bytes and delivers two.
	partial := func(w http.ResponseWriter) {
		w.Header().Set("Content-Length", "5")
		io.WriteString(w, "he")
		w.(http.Flusher).Flush()
	}

	cases := []struct {
		name    string
		serve   func(n int, w http.ResponseWriter, r *http.Request) // n = 0-based request index
		timeout time.Duration
		trace   obs.TraceContext
		handle  func(*http.Response) (error, bool)
		check   func(t *testing.T, err error, traces []string, sleeps []time.Duration)
	}{
		{
			name: "a stalled body trips the deadline and the next attempt gets a fresh one",
			serve: func(n int, w http.ResponseWriter, r *http.Request) {
				if n == 0 {
					partial(w)
					select { // stall past the deadline, mid-body
					case <-stall:
					case <-r.Context().Done():
					}
					return
				}
				// A deadline shared with attempt 0 would already have passed.
				time.Sleep(150 * time.Millisecond)
				io.WriteString(w, "hello")
			},
			timeout: 250 * time.Millisecond,
			handle:  readAll,
			check: func(t *testing.T, err error, traces []string, _ []time.Duration) {
				if err != nil || got != "hello" || len(traces) != 2 {
					t.Fatalf("err = %v, body = %q after %d requests; want hello on the second", err, got, len(traces))
				}
			},
		},
		{
			name: "every attempt carries a distinct span id under one trace id",
			serve: func(n int, w http.ResponseWriter, r *http.Request) {
				if n < 2 {
					http.Error(w, "busy", http.StatusServiceUnavailable)
				}
			},
			trace:  root,
			handle: readAll,
			check: func(t *testing.T, err error, traces []string, _ []time.Duration) {
				if err != nil || len(traces) != 3 {
					t.Fatalf("err = %v after %d requests, want success on the third", err, len(traces))
				}
				spans := map[string]bool{}
				for _, h := range traces {
					tc, ok := obs.ParseTrace(h)
					if !ok || tc.Trace != root.Trace || tc.Parent != root.Span {
						t.Fatalf("attempt header %q is not a child of %v", h, root)
					}
					spans[tc.Span] = true
				}
				if len(spans) != 3 {
					t.Fatalf("span ids %v: want one per attempt", traces)
				}
			},
		},
		{
			name:   "a zero trace sends no header",
			serve:  func(int, http.ResponseWriter, *http.Request) {},
			handle: readAll,
			check: func(t *testing.T, err error, traces []string, _ []time.Duration) {
				if err != nil || len(traces) != 1 || traces[0] != "" {
					t.Fatalf("err = %v, trace headers = %q, want one request without %s", err, traces, obs.TraceHeader)
				}
			},
		},
		{
			name: "Retry-After is slept through the policy, capped at 2s",
			serve: func(n int, w http.ResponseWriter, r *http.Request) {
				switch n {
				case 0:
					w.Header().Set("Retry-After", "1")
					http.Error(w, "full", http.StatusTooManyRequests)
				case 1:
					w.Header().Set("Retry-After", "3600")
					http.Error(w, "draining", http.StatusServiceUnavailable)
				}
			},
			handle: readAll,
			check: func(t *testing.T, err error, traces []string, sleeps []time.Duration) {
				if err != nil || len(traces) != 3 {
					t.Fatalf("err = %v after %d requests", err, len(traces))
				}
				if len(sleeps) != 2 || sleeps[0] != time.Second || sleeps[1] != maxRetryAfter {
					t.Fatalf("slept %v, want [1s %v]", sleeps, maxRetryAfter)
				}
			},
		},
		{
			name: "a body cut after the headers is retried when handle says so",
			serve: func(n int, w http.ResponseWriter, r *http.Request) {
				if n == 0 {
					partial(w)
					panic(http.ErrAbortHandler) // the connection dies mid-body
				}
				io.WriteString(w, "hello")
			},
			handle: readAll,
			check: func(t *testing.T, err error, traces []string, _ []time.Duration) {
				if err != nil || got != "hello" || len(traces) != 2 {
					t.Fatalf("err = %v, body = %q after %d requests; want the re-fetch", err, got, len(traces))
				}
			},
		},
		{
			name: "and is not when handle says it is terminal",
			serve: func(n int, w http.ResponseWriter, r *http.Request) {
				partial(w)
				panic(http.ErrAbortHandler)
			},
			handle: func(resp *http.Response) (error, bool) {
				_, err := io.ReadAll(resp.Body)
				return err, false
			},
			check: func(t *testing.T, err error, traces []string, _ []time.Duration) {
				if !errors.Is(err, io.ErrUnexpectedEOF) || len(traces) != 1 {
					t.Fatalf("err = %v after %d requests, want the cut body from exactly one", err, len(traces))
				}
			},
		},
		{
			name: "a terminal status makes exactly one request",
			serve: func(n int, w http.ResponseWriter, r *http.Request) {
				http.NotFound(w, r)
			},
			handle: readAll,
			check: func(t *testing.T, err error, traces []string, sleeps []time.Duration) {
				if err == nil || len(traces) != 1 || len(sleeps) != 0 {
					t.Fatalf("err = %v after %d requests and sleeps %v, want one terminal answer", err, len(traces), sleeps)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var traces []string
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				n := len(traces)
				traces = append(traces, r.Header.Get(obs.TraceHeader))
				mu.Unlock()
				tc.serve(n, w, r)
			}))
			defer ts.Close()
			var sleeps []time.Duration
			policy := &RetryPolicy{Attempts: 4, Sleep: func(d time.Duration) { sleeps = append(sleeps, d) }}
			got = ""
			err := Exchange(ts.Client(), policy, &Request{Method: http.MethodGet, URL: ts.URL, Trace: tc.trace, Timeout: tc.timeout}, tc.handle)
			mu.Lock()
			defer mu.Unlock()
			tc.check(t, err, traces, sleeps)
		})
	}

	t.Run("a nil client is DefaultHTTPClient and a nil policy is one attempt", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if ct := r.Header.Get("Content-Type"); ct != "text/plain" {
				t.Errorf("Content-Type = %q, want the request's", ct)
			}
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", http.StatusServiceUnavailable)
		}))
		defer ts.Close()
		shared := DefaultHTTPClient()
		rt := &countingRT{}
		defaultClient = &http.Client{Transport: rt}
		defer func() { defaultClient = shared }()
		err := Exchange(nil, nil, &Request{Method: http.MethodPost, URL: ts.URL, ContentType: "text/plain", Body: []byte("x")}, readAll)
		if err == nil || rt.n != 1 {
			t.Fatalf("err = %v after %d requests on the default client, want one shed answer", err, rt.n)
		}
		var d *Delayed
		if errors.As(err, &d) {
			t.Fatalf("the caller's error came back inside a *Delayed: %v", err)
		}
	})
}

// TestGetJSON: the scrape helper decodes a 200 and names the status of
// anything else.
func TestGetJSON(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/ok" {
			http.Error(w, "no such thing", http.StatusNotFound)
			return
		}
		io.WriteString(w, `{"pending": 3}`)
	}))
	defer ts.Close()
	var v struct{ Pending int }
	if err := GetJSON(ts.Client(), ts.URL+"/ok", &v); err != nil || v.Pending != 3 {
		t.Fatalf("GetJSON = %v, decoded %+v", err, v)
	}
	if err := GetJSON(nil, ts.URL+"/missing", &v); err == nil {
		t.Fatal("a 404 decoded as success")
	}
}
