package playsvc

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/media/raster"
	"repro/internal/obs"
)

// maxBody bounds accepted request bodies; play requests are tiny.
const maxBody = 1 << 20

// Handler returns the play service's HTTP surface (ActV2Path, ActPath,
// FramePath, StatsPath, the handoff routes and the room routes). Mount it
// at "/play/" and "/room/" on a netstream.Server or any mux; repeated
// calls return the same handler.
func (m *Manager) Handler() http.Handler {
	m.handlerOnce.Do(func() {
		mux := http.NewServeMux()
		mux.HandleFunc(ActV2Path, m.handleActV2)
		mux.HandleFunc(ActPath, m.handleAct)
		mux.HandleFunc(FramePath, m.handleFrame)
		mux.HandleFunc(StatsPath, m.handleStats)
		mux.HandleFunc(HandoffPath, m.handleHandoff)
		mux.HandleFunc(DrainPath, m.handleDrain)
		mux.HandleFunc(RecoverPath, m.handleRecover)
		mux.HandleFunc(RoomWatchPath, m.handleRoomWatch)
		mux.HandleFunc(RoomAnswerPath, m.handleRoomAnswer)
		mux.HandleFunc(RoomStatsPath, m.handleRoomStats)
		m.handler = mux
	})
	return m.handler
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeError answers with the error's status; an Unknown 404 carries
// UnknownSessionHeader.
func writeError(w http.ResponseWriter, err error) {
	if pe, ok := err.(*Error); ok && pe.Unknown {
		w.Header().Set(UnknownSessionHeader, "1")
	}
	http.Error(w, err.Error(), httpStatus(err))
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// handleHandoff freezes one session into the shared snapshot directory (the
// gateway calls this on a session's old owner when ownership moves).
func (m *Manager) handleHandoff(w http.ResponseWriter, r *http.Request) {
	var req HandoffRequest
	if !decodeBody(w, r, &req) {
		return
	}
	t0 := time.Now()
	err := m.Freeze(req.Session)
	m.ring.Record(obs.TraceFromRequest(r), "play.handoff", t0, err)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]string{"session": req.Session, "state": "frozen"})
}

// handleRecover thaws a session even from a checkpoint entry; the caller
// asserts its owning node crashed (see Manager.Recover).
func (m *Manager) handleRecover(w http.ResponseWriter, r *http.Request) {
	var req HandoffRequest
	if !decodeBody(w, r, &req) {
		return
	}
	t0 := time.Now()
	err := m.Recover(req.Session)
	m.ring.Record(obs.TraceFromRequest(r), "play.recover", t0, err)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]string{"session": req.Session, "state": "recovered"})
}

// handleDrain freezes every hosted session — the graceful-removal step a
// gateway runs before a node leaves the cluster.
func (m *Manager) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, map[string]int{"drained": m.DrainAll()})
}

// handleAct is the JSON adapter on the act path: the curl-able debug
// route for a create, a resume or one act, a leave included. It decodes
// into the same BatchRequest a frame does.
func (m *Manager) handleAct(w http.ResponseWriter, r *http.Request) {
	var req ActRequest
	if !decodeBody(w, r, &req) {
		return
	}
	m.serveAct(w, r, req.batch(), nil)
}

// handleActV2 is the framed act endpoint: a framed batch — a create or a
// resume, acts, a leave — in, a framed coalesced reply out. Frame-level rejections (bad
// magic, bad CRC, unknown act kind, a leave that is not the last act) are
// 400s.
func (m *Manager) handleActV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	buf := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(buf)
	body, err := readInto((*buf)[:0], http.MaxBytesReader(w, r.Body, maxBody))
	*buf = body
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	req, err := ParseActFrame(body)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	m.serveAct(w, r, req, buf)
}

// frameBufs recycles the framed act route's buffers: one holds a request's
// body, which the parse copies everything out of, and then its reply frame
// until the write returns.
var frameBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// readInto appends everything rd yields to b, as io.ReadAll does to a
// buffer of its own.
func readInto(b []byte, rd io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// serveAct is the shared act handler: everything past the decode is one
// path. Only the reply encoding differs — a frame, encoded into buf,
// carries an act-level error inside its 200 reply; the JSON adapter (nil
// buf) answers it as the status.
func (m *Manager) serveAct(w http.ResponseWriter, r *http.Request, req *BatchRequest, buf *[]byte) {
	req.Trace = obs.TraceFromRequest(r)
	out, err := m.ActBatch(req)
	if err != nil {
		writeError(w, err)
		return
	}
	if buf != nil {
		*buf = appendReplyFrame((*buf)[:0], out)
		w.Header().Set("Content-Type", FrameContentType)
		w.Write(*buf)
		return
	}
	reply, err := out.single()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, reply)
}

// handleFrame serves the session's presentation frame as raw 24-bit RGB
// with the geometry in headers. A frame GET only reads: playback moves by
// a tick act on the act path, which is sequenced and deduplicated, so a
// request naming advance is refused before the session is looked up.
func (m *Manager) handleFrame(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Has("advance") {
		http.Error(w, "advance is an act: send a tick on "+ActV2Path, http.StatusBadRequest)
		return
	}
	err := m.withFrame(obs.TraceFromRequest(r), q.Get("session"), func(f *raster.Frame, tick int) error {
		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set("X-Frame-Width", strconv.Itoa(f.W))
		h.Set("X-Frame-Height", strconv.Itoa(f.H))
		h.Set("X-Frame-Tick", strconv.Itoa(tick))
		h.Set("Content-Length", strconv.Itoa(len(f.Pix)))
		_, werr := w.Write(f.Pix)
		return werr
	})
	if err != nil {
		// Too late for a status line if the body started; ignore that case.
		writeError(w, err)
	}
}

// The answer POST names its room in the query, like the room GETs; the
// JSON body carries the rest.
func (m *Manager) handleRoomAnswer(w http.ResponseWriter, r *http.Request) {
	var req RoomAnswerRequest
	if !decodeBody(w, r, &req) {
		return
	}
	req.Room = r.URL.Query().Get("room")
	req.Trace = obs.TraceFromRequest(r)
	t0 := time.Now()
	reply, err := m.AnswerRoom(&req)
	m.ring.Record(req.Trace, "room.answer", t0, err)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, reply)
}

func (m *Manager) handleRoomStats(w http.ResponseWriter, r *http.Request) {
	st, err := m.RoomStatsOf(r.URL.Query().Get("room"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, st)
}

// handleRoomWatch serves the fan-out: GET with room, seq (how many of the
// driver's acts the watcher's replica holds, 0 for none) and wait_ms
// (long-poll hold, default 2s). A reply is one act frame (Room.WatchNext),
// at once when the room has logged an act past seq. A 204 means the hold
// expired with nothing new; a room that is gone is a 404. An absent or
// empty number takes its default (0, or the 2s hold, as does a
// wait_ms ≤ 0); one that is not a decimal integer, or a negative seq, is
// refused with 400 before the room is looked up.
func (m *Manager) handleRoomWatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var nums [2]int64
	for i, key := range [...]string{"seq", "wait_ms"} {
		s := q.Get(key)
		if s == "" {
			continue
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n < 0 && key == "seq" {
			http.Error(w, "malformed "+key, http.StatusBadRequest)
			return
		}
		nums[i] = n
	}
	room, err := m.roomByID(q.Get("room"))
	if err != nil {
		writeError(w, err)
		return
	}
	wait := 2 * time.Second
	if nums[1] > 0 {
		wait = time.Duration(min(nums[1], maxWatchWait.Milliseconds())) * time.Millisecond
	}

	reply, _, err := room.WatchNext(nums[0], wait, nil)
	if err != nil {
		writeError(w, err)
		return
	}
	if reply == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", FrameContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
	w.Write(reply)
}

// handleStats serves /play/stats: the registry's flat scalar view plus the
// one fact with no metric form, the course list.
func (m *Manager) handleStats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{"courses": m.Courses()}
	for k, v := range m.Snapshot() {
		out[k] = v
	}
	writeStats(w, out)
}

// writeStats is writeJSON indented: people read the stats endpoints.
func writeStats(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
