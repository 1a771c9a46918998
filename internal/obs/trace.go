package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TraceHeader carries a TraceContext across HTTP hops as
// "trace/span/parent" (parent may be empty). The gateway mints a context
// for requests arriving without one, so every act routed through the
// cluster is traceable end to end: gateway span → node span (parented on
// the gateway's) → thaw/handoff child spans.
const TraceHeader = "X-Vgbl-Trace"

// TraceContext identifies one request's position in a trace tree.
type TraceContext struct {
	Trace  string `json:"trace"`            // shared by every span of one request chain
	Span   string `json:"span"`             // this hop
	Parent string `json:"parent,omitempty"` // the hop that caused this one
}

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic("obs: trace id entropy: " + err.Error())
	}
	return hex.EncodeToString(b)
}

// NewTrace mints a fresh root context.
func NewTrace() TraceContext {
	return TraceContext{Trace: randHex(8), Span: randHex(4)}
}

// Valid reports whether the context carries a trace id.
func (t TraceContext) Valid() bool { return t.Trace != "" }

// Child derives the context for a sub-operation: same trace, new span,
// parented on this one. Child of an invalid context is invalid, so
// instrumented internals called outside any trace stay silent.
func (t TraceContext) Child() TraceContext {
	if !t.Valid() {
		return TraceContext{}
	}
	return TraceContext{Trace: t.Trace, Span: randHex(4), Parent: t.Span}
}

// String renders the header form "trace/span/parent".
func (t TraceContext) String() string {
	return t.Trace + "/" + t.Span + "/" + t.Parent
}

// maxTraceID bounds each field of an accepted header. NewTrace and Child
// mint 16- and 8-character ids; the bound keeps a caller's header from
// pinning its bytes in every span-ring slot it lands in.
const maxTraceID = 32

// ParseTrace decodes the header form; ok is false for anything
// malformed. Each id is 1–32 lowercase hex characters (the parent may be
// absent or empty), which is what NewTrace and Child mint.
func ParseTrace(s string) (TraceContext, bool) {
	parts := strings.SplitN(s, "/", 4)
	if len(parts) < 2 || len(parts) > 3 || !traceID(parts[0]) || !traceID(parts[1]) {
		return TraceContext{}, false
	}
	t := TraceContext{Trace: parts[0], Span: parts[1]}
	if len(parts) == 3 && parts[2] != "" {
		if !traceID(parts[2]) {
			return TraceContext{}, false
		}
		t.Parent = parts[2]
	}
	return t, true
}

// traceID reports whether s is 1–maxTraceID lowercase hex characters.
func traceID(s string) bool {
	if s == "" || len(s) > maxTraceID {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// TraceFromRequest extracts the context from an incoming request (zero
// value when absent or malformed).
func TraceFromRequest(r *http.Request) TraceContext {
	tc, _ := ParseTrace(r.Header.Get(TraceHeader))
	return tc
}

// Inject writes the context onto outgoing request headers.
func (t TraceContext) Inject(h http.Header) {
	if t.Valid() {
		h.Set(TraceHeader, t.String())
	}
}

// Span is one recorded operation.
type Span struct {
	Trace    string        `json:"trace"`
	Span     string        `json:"span"`
	Parent   string        `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Node     string        `json:"node,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Err      string        `json:"err,omitempty"`
}

// SpanRing is a bounded in-memory span buffer — one per node, newest
// overwrites oldest. It is the whole storage story for /debug/traces:
// enough to follow a recent request across nodes, nothing to operate.
type SpanRing struct {
	node string

	mu     sync.Mutex
	buf    []Span
	next   int
	filled bool
	total  int64 // spans ever recorded (recent ring overwrites are invisible)
}

// NewSpanRing builds a ring of the given capacity (default 512) whose
// spans are stamped with the node name.
func NewSpanRing(node string, capacity int) *SpanRing {
	if capacity <= 0 {
		capacity = 512
	}
	return &SpanRing{node: node, buf: make([]Span, capacity)}
}

// Record appends one completed span for tc. Invalid contexts are dropped
// silently, so hot paths can call this unconditionally and only traced
// requests pay for the ring.
func (r *SpanRing) Record(tc TraceContext, name string, start time.Time, err error) {
	if !tc.Valid() {
		return
	}
	s := Span{
		Trace:    tc.Trace,
		Span:     tc.Span,
		Parent:   tc.Parent,
		Name:     name,
		Node:     r.node,
		Start:    start,
		Duration: time.Since(start),
	}
	if err != nil {
		s.Err = err.Error()
	}
	r.mu.Lock()
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.filled = true
	}
	r.total++
	r.mu.Unlock()
}

// Total counts spans ever recorded (including ones the ring has since
// overwritten).
func (r *SpanRing) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Spans returns recorded spans, newest first, optionally filtered by
// trace id, up to limit (0 = all retained).
func (r *SpanRing) Spans(trace string, limit int) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.filled {
		n = len(r.buf)
	}
	out := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		// Walk backwards from the most recent write.
		idx := (r.next - 1 - i + len(r.buf)) % len(r.buf)
		s := r.buf[idx]
		if trace != "" && s.Trace != trace {
			continue
		}
		out = append(out, s)
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out
}

// Handler serves GET /debug/traces: the retained spans as JSON, newest
// first. ?trace=<id> filters to one trace; ?n=<k> bounds the result.
func (r *SpanRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		limit, _ := strconv.Atoi(q.Get("n"))
		spans := r.Spans(q.Get("trace"), limit)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Node  string `json:"node"`
			Spans []Span `json:"spans"`
		}{r.node, spans})
	})
}
