package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/faultnet"
	"repro/internal/runtime"
)

// ClientOptions configures a batching telemetry client.
type ClientOptions struct {
	BaseURL string // server base, e.g. "http://127.0.0.1:8807"
	Course  string
	Session string
	Start   string // start scenario, threaded to the server-side digest

	FlushEvery int           // flush when this many events are buffered (default 64)
	Interval   time.Duration // also flush this often (0 disables the timer)
	HTTP       *http.Client  // nil = faultnet.DefaultHTTPClient()
}

// Every flush is one faultnet.Exchange under these constants: up to
// postAttempts posts a flush, jittered backoff from 1ms to a 32ms ceiling
// (a shedding server's Retry-After overrides it), each post bounded by
// postTimeout so a stalled server cannot hold postMu for ever.
const (
	postAttempts = 64
	postTimeout  = 10 * time.Second
)

// ClientStats counts what reporting cost.
type ClientStats struct {
	Batches   int           // batches delivered (attempted batches, not retries)
	Events    int           // events delivered
	Dropped   int           // events discarded because delivery failed
	Posts     int           // HTTP posts the server answered, including retries
	Retries   int           // answered posts beyond the first of their flush
	FlushTime time.Duration // total time spent posting
	MaxFlush  time.Duration // slowest single flush
}

// pendingBatch is a fully built batch the server has not acked yet. It is
// retried verbatim — same sequence number, same payload — so at-least-once
// delivery stays safe under the server's sequence dedup: a re-sent batch
// is either applied or recognized as a duplicate, and newer events can
// never fold into an already-issued sequence number.
type pendingBatch struct {
	payload []byte
	events  int // event count, for stats
}

// Client is a batching runtime.Observer: Record buffers events and flushes
// them as one batch frame (EncodeBatch) to the ingest endpoint when the
// buffer reaches FlushEvery or the interval timer fires. Close flushes the
// tail and marks the session done. Record is safe to call from the session
// goroutine while the interval timer flushes from its own; per-session
// batch order is preserved by a single-flight post lock.
type Client struct {
	opts  ClientOptions
	url   string
	retry faultnet.RetryPolicy // postAttempts at 1–32ms; tests shrink it in place

	postMu  sync.Mutex    // serializes posts, preserving batch order
	seq     int           // last batch sequence number issued (guarded by postMu)
	pending *pendingBatch // unacked batch awaiting redelivery (guarded by postMu)

	mu     sync.Mutex // guards buf, stats, err, closed
	buf    []runtime.Event
	stats  ClientStats
	err    error
	closed bool

	stopTimer chan struct{}
	timerDone chan struct{}
}

// NewClient validates options and starts the interval flusher (when
// Interval > 0).
func NewClient(o ClientOptions) (*Client, error) {
	if o.BaseURL == "" {
		return nil, fmt.Errorf("telemetry: client needs a BaseURL")
	}
	if o.Course == "" || o.Session == "" {
		return nil, fmt.Errorf("telemetry: client needs Course and Session")
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = 64
	}
	c := &Client{
		opts:      o,
		url:       o.BaseURL + IngestPath,
		retry:     faultnet.RetryPolicy{Attempts: postAttempts, BaseDelay: time.Millisecond, MaxDelay: 32 * time.Millisecond},
		stopTimer: make(chan struct{}),
		timerDone: make(chan struct{}),
	}
	if o.Interval > 0 {
		go c.runTimer(o.Interval)
	} else {
		close(c.timerDone)
	}
	return c, nil
}

func (c *Client) runTimer(every time.Duration) {
	defer close(c.timerDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.Flush()
		case <-c.stopTimer:
			return
		}
	}
}

// Record implements runtime.Observer. Events recorded after Close, or
// after a sticky delivery failure, are dropped (and counted in Stats) —
// once a batch is undeliverable the server would reject the sequence gap
// anyway, and buffering forever would grow memory without bound.
func (c *Client) Record(e runtime.Event) {
	c.mu.Lock()
	if c.closed || c.err != nil {
		c.stats.Dropped++
		c.mu.Unlock()
		return
	}
	c.buf = append(c.buf, e)
	full := len(c.buf) >= c.opts.FlushEvery
	c.mu.Unlock()
	if full {
		c.Flush()
	}
}

// Buffered returns the number of events waiting for the next flush.
func (c *Client) Buffered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}

// Flush posts the buffered events (no-op when the buffer is empty).
func (c *Client) Flush() error {
	c.postMu.Lock()
	defer c.postMu.Unlock()
	return c.flushLocked(false)
}

// Close flushes the tail, marks the session done on the server, and stops
// the interval flusher. Further Records are dropped. It returns the first
// delivery error encountered over the client's lifetime.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.closed = true
	c.mu.Unlock()
	if c.opts.Interval > 0 {
		close(c.stopTimer)
		<-c.timerDone
	}
	c.postMu.Lock()
	defer c.postMu.Unlock()
	return c.flushLocked(true)
}

// Stats returns a copy of the delivery counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Err returns the first delivery error (nil while everything has landed).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// flushLocked runs with postMu held: it redelivers any batch still pending
// from an earlier shed, then cuts the buffered events into a new batch and
// posts it. A batch the server keeps shedding (429/503, honoring its
// Retry-After) or that the network keeps eating is re-queued for the next
// flush instead of being dropped — the error it returns is NOT sticky.
// Only a definitive rejection (any other non-2xx, or a failed Close) goes
// sticky; after that no further batches are sent (the server would reject
// the sequence gap anyway, and buffering forever would grow memory without
// bound).
func (c *Client) flushLocked(done bool) error {
	c.mu.Lock()
	if c.err != nil {
		// Sticky failure: shed anything still buffered and stop posting.
		c.stats.Dropped += len(c.buf)
		c.buf = nil
		err := c.err
		c.mu.Unlock()
		return err
	}
	events := c.buf
	c.buf = nil
	c.mu.Unlock()
	err := c.deliver(events, done)
	if err != nil && done {
		// Closing with an undeliverable backlog: nothing will retry it.
		c.mu.Lock()
		if c.pending != nil {
			c.stats.Dropped += c.pending.events
		}
		c.stats.Dropped += len(c.buf)
		c.buf = nil
		c.mu.Unlock()
		c.pending = nil
		return c.fail(err)
	}
	return err
}

// deliver posts the pending batch first (order and sequence numbering
// require it to land, or be deduplicated, before anything newer is cut),
// then builds and posts a new batch from events. On a retriable failure
// the undelivered batch stays pending and any uncut events return to the
// front of the buffer — nothing is dropped.
func (c *Client) deliver(events []runtime.Event, done bool) error {
	if c.pending != nil {
		if err := c.post(c.pending); err != nil {
			if len(events) > 0 {
				c.mu.Lock()
				c.buf = append(events, c.buf...)
				c.mu.Unlock()
			}
			return err
		}
		c.pending = nil
	}
	if len(events) == 0 && !done {
		return nil
	}
	c.seq++
	b := Batch{
		Course:  c.opts.Course,
		Session: c.opts.Session,
		Start:   c.opts.Start,
		Seq:     c.seq,
		Events:  events,
		Done:    done,
	}
	p := &pendingBatch{payload: EncodeBatch(&b), events: len(events)}
	if err := c.post(p); err != nil {
		c.pending = p
		return err
	}
	return nil
}

// post sends one batch, retrying while the server sheds load (429/503 —
// sleeping the server's advertised Retry-After when it sends one, the
// jittered backoff otherwise) or the transport fails. Exhausting the retry
// budget returns a non-sticky error: the caller keeps the batch pending.
// A definitive rejection drops the batch and goes sticky.
func (c *Client) post(p *pendingBatch) error {
	began := time.Now()
	posts, rejected := 0, false
	err := faultnet.Exchange(c.opts.HTTP, &c.retry, &faultnet.Request{
		Method: http.MethodPost, URL: c.url, ContentType: BatchContentType, Body: p.payload, Timeout: postTimeout,
	}, func(resp *http.Response) (error, bool) {
		posts++
		io.Copy(io.Discard, resp.Body)
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			return nil, false
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return faultnet.WithRetryAfter(resp, fmt.Errorf("telemetry: server shedding load (%d)", resp.StatusCode)), true
		}
		rejected = true
		return fmt.Errorf("telemetry: ingest %s: %s", c.url, resp.Status), false
	})
	took := time.Since(began)
	c.mu.Lock()
	c.stats.Posts += posts
	c.stats.Retries += max(posts-1, 0)
	switch {
	case err == nil:
		c.stats.Batches++
		c.stats.Events += p.events
		c.stats.FlushTime += took
		c.stats.MaxFlush = max(c.stats.MaxFlush, took)
	case rejected:
		c.stats.Dropped += p.events
	}
	c.mu.Unlock()
	switch {
	case rejected:
		return c.fail(err)
	case err != nil:
		return fmt.Errorf("telemetry: batch undelivered: %w", err)
	}
	return nil
}

// fail records the first sticky error.
func (c *Client) fail(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	return err
}
