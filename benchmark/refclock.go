package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// The reference clock. The boxes this benchmark is sized for are a few
// vCPUs of a shared host, and such a vCPU does not run at one speed: what
// the neighbours do moves it between states a quarter or more apart — at
// bad times a factor of two — for seconds to minutes, and the same work
// takes that much longer. A window that sits in a slow stretch reads that
// much worse. So the harness does not time in wall seconds. Every 20 ms
// it times a fixed piece of reference work and sets the clock's rate to
// nominal ÷ measured: the clock runs slower while the host does, and a
// duration read off it is the time the work would have taken on a host
// that does the reference work in its nominal time. Every duration the
// harness reports — latencies, the elapsed time behind a throughput,
// set-up — is read off this clock, and CPU times are scaled by the
// window's mean rate; control flow (how long a window lasts, timeouts)
// stays on the wall clock. Each run prints the mean rate, so wall figures
// can be had back.
//
// How much a slow stretch costs depends on what the work is made of: a
// hash loop barely notices one that doubles a request/response exchange
// between two processes. So there are two kinds of reference work, each
// from the standard library alone — no change to the program can move
// them — and a workload is timed against the kind it is made of:
//
//   - code (refWork): JSON marshalling and system calls, run by a sampler
//     goroutine. Compute-bound workloads, and every set-up.
//   - exchange (refExchange): a JSON POST to a plain net/http echo server
//     in a second child process, over loopback — what a thin client's act
//     is, minus the program. It needs the CPU to itself, so the worker
//     runs it between operations and the sampler stands by meanwhile.
const (
	refEvery  = 20 * time.Millisecond
	refSmooth = 5 // the rate follows the median of this many readings

	// Nominal times: the sizing box's fast state, so that there the
	// reported figures are wall figures.
	refWorkNominal     = 48 * time.Microsecond
	refExchangeNominal = 80 * time.Microsecond
)

// refDoc is what both kinds marshal: a small session-state-like document.
type refDoc struct {
	ID    string          `json:"id"`
	Tick  int             `json:"tick"`
	Items []string        `json:"items"`
	Vars  map[string]int  `json:"vars"`
	Flags map[string]bool `json:"flags"`
}

func newRefDoc(keys int) refDoc {
	doc := refDoc{ID: "reference", Vars: map[string]int{}, Flags: map[string]bool{}}
	for i := 0; i < keys; i++ {
		name := fmt.Sprintf("key-%02d", i)
		doc.Items = append(doc.Items, name)
		doc.Vars[name] = i
		doc.Flags[name] = i%2 == 0
	}
	return doc
}

// refWork is the code reference: one JSON round trip of a refDoc, then 32
// one-byte writes and reads through a pipe.
type refWork struct {
	doc  refDoc
	r, w *os.File
}

func newRefWork() (*refWork, error) {
	k := &refWork{doc: newRefDoc(24)}
	var err error
	k.r, k.w, err = os.Pipe()
	return k, err
}

func (k *refWork) run() error {
	data, err := json.Marshal(&k.doc)
	if err != nil {
		return err
	}
	var back refDoc
	if err := json.Unmarshal(data, &back); err != nil {
		return err
	}
	var one [1]byte
	for i := 0; i < 32; i++ {
		if _, err := k.w.Write(one[:]); err != nil {
			return err
		}
		if _, err := k.r.Read(one[:]); err != nil {
			return err
		}
	}
	return nil
}

func (k *refWork) close() {
	k.r.Close()
	k.w.Close()
}

// refExchange is the exchange reference: POST a refDoc to the echo child
// on a connection of its own, decode the reply.
type refExchange struct {
	hc   *http.Client
	url  string
	body []byte
}

func newRefExchange(base string) (*refExchange, error) {
	body, err := json.Marshal(newRefDoc(8))
	if err != nil {
		return nil, err
	}
	return &refExchange{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, url: base + "/echo", body: body}, nil
}

func (x *refExchange) run() error {
	resp, err := x.hc.Post(x.url, "application/json", bytes.NewReader(x.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var back refDoc
	if err := json.NewDecoder(resp.Body).Decode(&back); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// serveEcho is the echo child (`benchmark -echo -addr …`): it prints the
// listen line startServer parses and answers /healthz and /echo until it
// is killed.
func serveEcho(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening on http://%s\n", ln.Addr())
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		var doc refDoc
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		doc.Tick++
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&doc)
	})
	return http.Serve(ln, mux)
}

// stamp is a reading of the reference clock.
type stamp time.Duration

// refClock is piecewise linear in wall time: from the last reading of
// the reference work on, it advances rate reference seconds per wall
// second. The lock makes a clock reading and a rate change atomic with
// respect to each other, so clock readings never go back.
type refClock struct {
	mu   sync.Mutex
	wall time.Time     // the last rate change
	ref  time.Duration // reference time at wall
	rate float64

	feeding  sync.Mutex // one reading of the reference work at a time
	recent   []float64  // the last refSmooth readings ÷ their nominal
	exchange bool       // a worker feeds the clock from the exchange reference; the sampler stands by
}

// clock reads wall time (rate 1) until it is fed.
var clock = &refClock{wall: time.Now(), rate: 1}

// read is the clock's reading at wall; the caller holds mu.
func (c *refClock) read(wall time.Time) time.Duration {
	return c.ref + time.Duration(float64(wall.Sub(c.wall))*c.rate)
}

func now() stamp {
	clock.mu.Lock()
	defer clock.mu.Unlock()
	return stamp(clock.read(time.Now()))
}

func since(s stamp) time.Duration { return now().sub(s) }

func (s stamp) sub(earlier stamp) time.Duration { return time.Duration(s - earlier) }

// feed times work three times, keeps the shortest — a pass the scheduler
// cut in two is longer, never shorter — and sets the rate from the median
// of the last refSmooth such readings. A failed pass leaves the rate as
// it was, and so does a reading of the kind the clock is not following.
func (c *refClock) feed(work func() error, nominal time.Duration, exchange bool) error {
	c.feeding.Lock()
	defer c.feeding.Unlock()
	if exchange != c.exchange {
		return nil
	}
	best := time.Duration(1 << 62)
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		if err := work(); err != nil {
			return err
		}
		best = min(best, time.Since(t0))
	}
	c.recent = append(c.recent, float64(max(best, 1))/float64(nominal))
	if len(c.recent) > refSmooth {
		c.recent = c.recent[1:]
	}
	sorted := append([]float64(nil), c.recent...)
	sort.Float64s(sorted)
	c.mu.Lock()
	wall := time.Now()
	c.wall, c.ref = wall, c.read(wall)
	c.rate = 1 / sorted[len(sorted)/2]
	c.mu.Unlock()
	return nil
}

// follow switches the clock to the exchange reference x (the sampler
// stands by) or, with nil, back to the sampler's code reference. Readings
// of the other kind are forgotten and the first of the new kind taken.
func (c *refClock) follow(x *refExchange) error {
	c.feeding.Lock()
	c.exchange, c.recent = x != nil, nil
	c.feeding.Unlock()
	if x == nil {
		return nil
	}
	for k := 0; k < refSmooth; k++ {
		if err := c.feed(x.run, refExchangeNominal, true); err != nil {
			return err
		}
	}
	return nil
}

// start takes the first readings of the code reference and leaves the
// sampler running; the returned function stops it and waits until it has
// ended.
func (c *refClock) start() (stop func(), err error) {
	work, err := newRefWork()
	if err != nil {
		return nil, err
	}
	for k := 0; k < refSmooth; k++ {
		if err := c.feed(work.run, refWorkNominal, false); err != nil {
			work.close()
			return nil, err
		}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(refEvery)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				// A pipe of our own does not fail; if it did, the
				// rate stays where it was.
				_ = c.feed(work.run, refWorkNominal, false)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		work.close()
	}, nil
}
