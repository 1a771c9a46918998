// Manager-side room lifecycle: opening the hub (a create's room record),
// and the registry the HTTP surface and the janitor resolve rooms through.
package playsvc

import "net/http"

// roomList snapshots the live room registry (roomsMu is a leaf lock, so
// callers iterate outside it).
func (m *Manager) roomList() []*Room {
	m.roomsMu.Lock()
	defer m.roomsMu.Unlock()
	out := make([]*Room, 0, len(m.rooms))
	for _, r := range m.rooms {
		out = append(out, r)
	}
	return out
}

// Room resolves a live room by id.
func (m *Manager) Room(id string) (*Room, bool) {
	m.roomsMu.Lock()
	defer m.roomsMu.Unlock()
	r := m.rooms[id]
	return r, r != nil
}

func (m *Manager) roomByID(id string) (*Room, error) {
	if r, ok := m.Room(id); ok {
		return r, nil
	}
	return nil, errf(http.StatusNotFound, "playsvc: no room %q", id)
}

func (m *Manager) dropRoom(id string) {
	m.roomsMu.Lock()
	delete(m.rooms, id)
	m.roomsMu.Unlock()
}

// closeRoomLocked detaches and closes a session's broadcast hub; h.mu must
// be held. Rooms are live-only: the driven session may survive in the
// snapshot directory, the fan-out state does not: a watch of a closed
// room is a 404.
func (m *Manager) closeRoomLocked(h *hosted) {
	if h.room == nil {
		return
	}
	r := h.room
	h.room = nil
	r.close()
	m.dropRoom(r.id)
}

// openRoomLocked opens a session as a classroom room, for a batch whose
// create carries a room record: a broadcast hub under the session's id,
// its create marked as seq 0 with the state it starts in, the room
// registered. A retried create, or a second instructor client racing the
// first, finds the hub attached and reattaches to it. h.mu must be held.
func (m *Manager) openRoomLocked(h *hosted) {
	if h.room != nil {
		return
	}
	r := newRoom(m, h)
	h.room = r
	r.publish(h, nil)
	m.roomsMu.Lock()
	m.rooms[h.id] = r
	m.roomsMu.Unlock()
}

// AnswerRoom records one watcher's quiz answer and returns the cohort
// tally so far. The watcher id, which the watcher mints, names its vote.
func (m *Manager) AnswerRoom(req *RoomAnswerRequest) (*RoomAnswerReply, error) {
	if req.Watcher == "" {
		return nil, errf(http.StatusBadRequest, "playsvc: an answer names its watcher")
	}
	r, err := m.roomByID(req.Room)
	if err != nil {
		return nil, err
	}
	return r.answer(req.Watcher, req.Quiz, req.Choice)
}

// RoomStatsOf snapshots one room's counters and cohort tallies.
func (m *Manager) RoomStatsOf(id string) (RoomStats, error) {
	r, err := m.roomByID(id)
	if err != nil {
		return RoomStats{}, err
	}
	return r.stats(), nil
}
