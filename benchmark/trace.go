package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed boundary crossing. IDs are indexes into the owning
// tracer's slice; the written file renumbers them globally.
type span struct {
	parent int32 // -1 for a root
	trace  int64 // learner index: spans of one learner share it
	name   string
	start  stamp
	end    stamp
}

// tracer records one worker's spans in memory. A worker runs one learner
// at a time on one goroutine, so a stack of open spans gives each new
// span its parent. The lock exists for the HTTP leaves: netstream fans
// chunk fetches out over helper goroutines, and their round trips land
// under whatever span the learner goroutine has open.
type tracer struct {
	on bool

	mu    sync.Mutex
	trace int64
	spans []span
	stack []int32
}

// begin opens a span under the innermost open one and returns its id
// (-1 when tracing is off).
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	at := now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{parent: t.topLocked(), trace: t.trace, name: name, start: at})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.endAt(id, now())
}

func (t *tracer) endAt(id int32, at stamp) {
	t.mu.Lock()
	t.spans[id].end = at
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
}

// cancel discards the innermost open span if nothing was recorded under
// it (an observer call that did not flush, say); otherwise it ends it.
func (t *tracer) cancel(id int32) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) == len(t.spans)-1 {
		t.spans = t.spans[:id]
		t.stack = t.stack[:len(t.stack)-1]
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	t.end(id)
}

// setTrace names the learner whose spans follow.
func (t *tracer) setTrace(id int64) {
	t.mu.Lock()
	t.trace = id
	t.mu.Unlock()
}

func (t *tracer) topLocked() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// top returns the innermost open span, the parent an HTTP leaf records.
func (t *tracer) top() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.topLocked()
}

// leaf records a finished span under parent.
func (t *tracer) leaf(parent int32, name string, start, end stamp) {
	t.mu.Lock()
	t.spans = append(t.spans, span{parent: parent, trace: t.trace, name: name, start: start, end: end})
	t.mu.Unlock()
}

// selfTimes returns, for every span, its duration minus the part of
// that interval its children cover (children of one parent may overlap:
// parallel chunk fetches).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered := stamp(0)
		edge := s.start
		for _, k := range ks {
			lo, hi := max(spans[k].start, edge), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = time.Duration(s.end - s.start - covered)
	}
	return self
}

// spanRecord is the written form of a span, one JSON object per line.
type spanRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // -1 for a root
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// writeSpans writes every worker's spans to path as JSON lines and
// returns how many it wrote.
func writeSpans(path string, ws []*worker) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	base, n := int64(0), 0
	for _, w := range ws {
		self := selfTimes(w.tr.spans)
		for i, s := range w.tr.spans {
			rec := spanRecord{ID: base + int64(i), Parent: -1, Trace: s.trace, Name: s.name,
				Start: int64(s.start), End: int64(s.end), Self: int64(self[i])}
			if s.parent >= 0 {
				rec.Parent = base + int64(s.parent)
			}
			if err := enc.Encode(&rec); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
		base += int64(len(w.tr.spans))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

// spanStats are the durations and self times of every span with one
// name, across workers.
type spanStats struct {
	dur, self []time.Duration
}

// byName groups spans by name; match narrows to names it accepts.
func byName(ws []*worker, match func(name string) bool) *spanStats {
	st := &spanStats{}
	for _, w := range ws {
		self := selfTimes(w.tr.spans)
		for i, s := range w.tr.spans {
			if match(s.name) {
				st.dur = append(st.dur, time.Duration(s.end-s.start))
				st.self = append(st.self, self[i])
			}
		}
	}
	return st
}

// childSums returns, for every span named parent (in recording order),
// the summed duration of its direct children, by child name.
func childSums(ws []*worker, parent string) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, w := range ws {
		index := map[int32]int{} // parent span id → its row
		rows := 0
		for i, s := range w.tr.spans {
			if s.name == parent {
				index[int32(i)] = rows
				rows++
			}
		}
		sums := map[string][]time.Duration{}
		for _, s := range w.tr.spans {
			row, ok := index[s.parent]
			if !ok {
				continue
			}
			if sums[s.name] == nil {
				sums[s.name] = make([]time.Duration, rows)
			}
			sums[s.name][row] += time.Duration(s.end - s.start)
		}
		for name, col := range sums {
			out[name] = append(out[name], col...)
		}
	}
	return out
}

func named(name string) func(string) bool { return func(n string) bool { return n == name } }

// route classes the timing transport sorts requests into.
const (
	rPlayAct = iota // /play/act, /play/actv2
	rPlayFrame
	rPlayOther // create, state
	rTelemetry
	rManifest
	rChunk
	rPkg
	rOther
	routeKinds
)

var routeNames = [routeKinds]string{"/play/act", "/play/frame", "/play/", "/telemetry/", "/manifest/", "/chunk/", "/pkg/", "other"}

func routeOf(path string) int {
	switch {
	case strings.HasPrefix(path, "/play/act"):
		return rPlayAct
	case strings.HasPrefix(path, "/play/frame"):
		return rPlayFrame
	case strings.HasPrefix(path, "/play/"):
		return rPlayOther
	case strings.HasPrefix(path, "/telemetry/"):
		return rTelemetry
	case strings.HasPrefix(path, "/manifest/"):
		return rManifest
	case strings.HasPrefix(path, "/chunk/"):
		return rChunk
	case strings.HasPrefix(path, "/pkg/"):
		return rPkg
	}
	return rOther
}

// routeStats is what the timing transport saw on one route class.
type routeStats struct {
	requests    int64
	resent      int64 // answered 429/5xx or failed in transport: the client sends again
	notModified int64
	reqBytes    int64
	respBytes   int64
	rtts        []time.Duration // traced runs only
}

func (a *routeStats) add(b *routeStats) {
	a.requests += b.requests
	a.resent += b.resent
	a.notModified += b.notModified
	a.reqBytes += b.reqBytes
	a.respBytes += b.respBytes
	a.rtts = append(a.rtts, b.rtts...)
}

// timingRT is the http.RoundTripper inside the *http.Client the harness
// hands to playsvc, telemetry and netstream clients. It always counts
// (requests, bytes, re-sends, chunk bytes by hash — the stream check
// needs those); it times and records spans only on a traced run. A round
// trip runs from the request leaving until the response body is closed.
type timingRT struct {
	base http.RoundTripper
	tr   *tracer

	mu     sync.Mutex
	routes [routeKinds]routeStats
	chunks map[string]int64 // /chunk/<hash> → body bytes received
}

func (rt *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeOf(req.URL.Path)
	var start stamp
	var parent int32 = -1
	if rt.tr.on {
		start = now()
		parent = rt.tr.top()
	}
	resp, err := rt.base.RoundTrip(req)
	rt.mu.Lock()
	rs := &rt.routes[route]
	rs.requests++
	if req.ContentLength > 0 {
		rs.reqBytes += req.ContentLength
	}
	switch {
	case err != nil, resp.StatusCode == http.StatusTooManyRequests, resp.StatusCode >= 500:
		rs.resent++
	case resp.StatusCode == http.StatusNotModified:
		rs.notModified++
	}
	rt.mu.Unlock()
	if err != nil {
		if rt.tr.on {
			rt.tr.leaf(parent, "http "+routeNames[route], start, now())
		}
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, rt: rt, route: route, path: req.URL.Path, start: start, parent: parent}
	return resp, nil
}

// timedBody counts the response bytes and closes the round trip when the
// client closes the body.
type timedBody struct {
	io.ReadCloser
	rt     *timingRT
	route  int
	path   string
	start  stamp
	parent int32
	n      int64
	closed bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	if b.closed {
		return err
	}
	b.closed = true
	rt := b.rt
	var end stamp
	if rt.tr.on {
		end = now()
	}
	rt.mu.Lock()
	rs := &rt.routes[b.route]
	rs.respBytes += b.n
	if b.route == rChunk {
		rt.chunks[strings.TrimPrefix(b.path, "/chunk/")] += b.n
	}
	if rt.tr.on {
		rs.rtts = append(rs.rtts, time.Duration(end-b.start))
	}
	rt.mu.Unlock()
	if rt.tr.on {
		rt.tr.leaf(b.parent, "http "+routeNames[b.route], b.start, end)
	}
	return err
}
