package faultnet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Request describes one exchange. It is a description, not an
// *http.Request: Exchange builds a fresh request from it for every
// attempt, so a retry never reuses a consumed body or an expired deadline.
type Request struct {
	Method      string
	URL         string
	ContentType string      // sent with a non-nil Body
	Body        []byte      // nil = no body
	Header      http.Header // extra headers, e.g. If-None-Match
	// Trace, when valid, stamps every attempt with a fresh child span
	// (same trace id, distinct span ids); the zero value sends no header.
	Trace obs.TraceContext
	// Timeout bounds one attempt — connect, headers, body and handle —
	// not the retried whole. 0 means no deadline.
	Timeout time.Duration
}

// Exchange is the repo's one hop: every request that leaves a process is
// one call to it, and it holds the only (*http.Client).Do. Per attempt it
// builds the request under a fresh deadline, injects a fresh trace child,
// sends it on httpc (nil = DefaultHTTPClient()) and hands every response —
// whatever its status — to handle inside the deadline, closing the body
// afterwards: the response never escapes, so a stalled or cut body is a
// failure of the attempt, not of the caller. Attempts run under policy
// (nil = exactly one). A transport failure is retryable; for a response,
// handle's second result decides, because which statuses are terminal and
// whether a failed decode re-fetches cleanly are facts of the caller's
// protocol (wrap a shed status with WithRetryAfter to honor the server's
// delay). It is a function above Do, not a retrying RoundTripper, for the
// same reason — and so a RoundTripper on the caller's client still sees
// every attempt.
func Exchange(httpc *http.Client, policy *RetryPolicy, r *Request, handle func(*http.Response) (error, bool)) error {
	if httpc == nil {
		httpc = DefaultHTTPClient()
	}
	if policy == nil {
		policy = &oneAttempt
	}
	return policy.Do(func(int) (error, bool) {
		ctx := context.Background()
		if r.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, r.Timeout)
			defer cancel()
		}
		var body io.Reader
		if r.Body != nil {
			body = bytes.NewReader(r.Body)
		}
		req, err := http.NewRequestWithContext(ctx, r.Method, r.URL, body)
		if err != nil {
			return err, false
		}
		for k, vs := range r.Header {
			req.Header[k] = vs
		}
		if r.Body != nil {
			req.Header.Set("Content-Type", r.ContentType)
		}
		r.Trace.Child().Inject(req.Header)
		resp, err := httpc.Do(req)
		if err != nil {
			return err, true
		}
		defer resp.Body.Close()
		return handle(resp)
	})
}

// oneAttempt is the nil policy. It never retries, so it never sleeps or
// draws jitter: nothing in it is ever written, and sharing it is safe.
var oneAttempt = RetryPolicy{Attempts: 1}

// WithRetryAfter wraps err — the caller's description of a retryable
// non-2xx resp — in a *Delayed carrying the server's Retry-After, so the
// policy sleeps what the server asked for (capped at 2s) instead of its
// own jitter. Without the header err is returned as is.
func WithRetryAfter(resp *http.Response, err error) error {
	if after, ok := RetryAfterDelay(resp.Header); ok {
		return &Delayed{After: after, Err: err}
	}
	return err
}

// maxJSONBody bounds what GetJSON will decode.
const maxJSONBody = 16 << 20

// GetJSON GETs url once, under the 10s deadline every small request has,
// and decodes a 200's JSON body into v — the scrape helper for stats,
// health and /metrics?format=json endpoints.
func GetJSON(httpc *http.Client, url string, v any) error {
	req := &Request{Method: http.MethodGet, URL: url, Timeout: 10 * time.Second}
	return Exchange(httpc, nil, req, func(resp *http.Response) (error, bool) {
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg)), false
		}
		return json.NewDecoder(io.LimitReader(resp.Body, maxJSONBody)).Decode(v), false
	})
}
