package playsvc

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/media/raster"
	"repro/internal/obs"
)

// maxBody bounds accepted request bodies; play requests are tiny.
const maxBody = 1 << 20

// Handler returns the play service's HTTP surface (ActV2Path, CreatePath,
// ActPath, StatePath, FramePath, StatsPath). Mount it at "/play/" on a
// netstream.Server or any mux; repeated calls return the same handler.
func (m *Manager) Handler() http.Handler {
	m.handlerOnce.Do(func() {
		mux := http.NewServeMux()
		mux.HandleFunc(CreatePath, m.handleCreate)
		mux.HandleFunc(ActPath, m.handleAct)
		mux.HandleFunc(ActV2Path, m.handleActV2)
		mux.HandleFunc(StatePath, m.handleState)
		mux.HandleFunc(FramePath, m.handleFrame)
		mux.HandleFunc(StatsPath, m.handleStats)
		mux.HandleFunc(HandoffPath, m.handleHandoff)
		mux.HandleFunc(DrainPath, m.handleDrain)
		mux.HandleFunc(RecoverPath, m.handleRecover)
		mux.HandleFunc(RoomCreatePath, m.handleRoomCreate)
		mux.HandleFunc(RoomJoinPath, m.handleRoomJoin)
		mux.HandleFunc(RoomLeavePath, m.handleRoomLeave)
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

// writeError answers with the error's status; a protocol error carrying
// a Retry-After hint (load shedding) advertises it so clients and the
// gateway back off for a bounded, server-chosen interval instead of
// guessing.
func writeError(w http.ResponseWriter, err error) {
	if pe, ok := err.(*Error); ok && pe.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(pe.RetryAfter))
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

func (m *Manager) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// resume=<session-id> in the query is the curl-friendly spelling of
	// the body field.
	if v := r.URL.Query().Get("resume"); v != "" && req.Resume == "" {
		req.Resume = v
	}
	req.Trace = obs.TraceFromRequest(r)
	t0 := time.Now()
	reply, err := m.Create(&req)
	m.ring.Record(req.Trace, "play.create", t0, err)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, reply)
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
// route for one act, a leave included. One act decodes into the same
// BatchRequest a frame does.
func (m *Manager) handleAct(w http.ResponseWriter, r *http.Request) {
	var req ActRequest
	if !decodeBody(w, r, &req) {
		return
	}
	m.serveAct(w, r, req.batch(), false)
}

// handleActV2 is the framed act endpoint: a framed batch — a create, acts,
// a leave — in, a framed coalesced reply out. Frame-level rejections (bad
// magic, bad CRC, unknown act kind, a leave that is not the last act) are
// 400s.
func (m *Manager) handleActV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	req, err := ParseActFrame(body)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	m.serveAct(w, r, req, true)
}

// serveAct is the shared act handler: everything past the decode is one
// path. Only the reply encoding differs — a frame carries an act-level
// error inside its 200 reply, the JSON adapter answers it as the status.
func (m *Manager) serveAct(w http.ResponseWriter, r *http.Request, req *BatchRequest, framed bool) {
	req.Trace = obs.TraceFromRequest(r)
	out, err := m.ActBatch(req)
	if err != nil {
		writeError(w, err)
		return
	}
	if framed {
		w.Header().Set("Content-Type", FrameContentType)
		w.Write(EncodeReplyFrame(out))
		return
	}
	reply, err := out.single()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, reply)
}

func (m *Manager) handleState(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	seenE, _ := strconv.Atoi(q.Get("events"))
	seenM, _ := strconv.Atoi(q.Get("messages"))
	reply, err := m.stateOf(obs.TraceFromRequest(r), q.Get("session"), seenE, seenM)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, reply)
}

// handleFrame serves the session's presentation frame as raw 24-bit RGB
// with the geometry in headers. ?advance=N ticks playback first, so a
// steady client fetches "the next frame" in one request.
func (m *Manager) handleFrame(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	advance, _ := strconv.Atoi(q.Get("advance"))
	if advance < 0 {
		http.Error(w, "negative advance", http.StatusBadRequest)
		return
	}
	err := m.withFrame(obs.TraceFromRequest(r), q.Get("session"), advance, func(f *raster.Frame, tick int) error {
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

func (m *Manager) handleRoomCreate(w http.ResponseWriter, r *http.Request) {
	var req RoomCreateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	req.Trace = obs.TraceFromRequest(r)
	t0 := time.Now()
	reply, err := m.CreateRoom(&req)
	m.ring.Record(req.Trace, "room.create", t0, err)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, reply)
}

func (m *Manager) handleRoomJoin(w http.ResponseWriter, r *http.Request) {
	var req RoomJoinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	req.Trace = obs.TraceFromRequest(r)
	t0 := time.Now()
	reply, err := m.JoinRoom(&req)
	m.ring.Record(req.Trace, "room.join", t0, err)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, reply)
}

func (m *Manager) handleRoomLeave(w http.ResponseWriter, r *http.Request) {
	var req RoomJoinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	m.LeaveRoom(&req)
	writeJSON(w, map[string]string{"room": req.Room, "watcher": req.Watcher, "state": "left"})
}

func (m *Manager) handleRoomAnswer(w http.ResponseWriter, r *http.Request) {
	var req RoomAnswerRequest
	if !decodeBody(w, r, &req) {
		return
	}
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

// WatchContentType marks a watch-chunk body.
const WatchContentType = "application/x-vgbl-watch"

// handleRoomWatch serves the fan-out: GET with room, watcher, events,
// messages (the seen-counts) and wait_ms (long-poll hold, default 2s).
// A reply is one chunk: the freshest pending frame, or with latest=0 the
// oldest (in-order ring draining). A 204 means the hold expired with
// nothing new; rejoin-worthy conditions (room gone, watcher pruned) are
// 404s.
func (m *Manager) handleRoomWatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	room, err := m.roomByID(q.Get("room"))
	if err != nil {
		writeError(w, err)
		return
	}
	seenE, _ := strconv.Atoi(q.Get("events"))
	seenM, _ := strconv.Atoi(q.Get("messages"))
	waitMS, _ := strconv.Atoi(q.Get("wait_ms"))
	if waitMS <= 0 {
		waitMS = 2000
	}
	wait := time.Duration(waitMS) * time.Millisecond
	latest := q.Get("latest") != "0"

	header, pix, _, _, err := room.WatchNext(q.Get("watcher"), seenE, seenM, latest, wait, nil)
	if err != nil {
		writeError(w, err)
		return
	}
	if header == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", WatchContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(header)+len(pix)))
	w.Write(header)
	w.Write(pix)
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
