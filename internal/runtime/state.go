package runtime

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/tagrec"
)

// StateEncoder writes a game state's one binary form — keys sorted, so
// equal states encode equal — into buffers it reuses: a hosted session
// encodes every reply's state, a mirror client tags its replica once a
// flush, and a snapshot's state record is the same bytes, all without
// allocating once the buffers have grown. DecodeState reads them back.
type StateEncoder struct {
	buf  []byte
	keys []string
}

// Encode returns s's canonical bytes, valid until the next Encode.
func (e *StateEncoder) Encode(s *core.State) []byte {
	e.buf = e.AppendState(e.buf[:0], s)
	return e.buf
}

// AppendState appends s's canonical bytes to b: scenario, inventory,
// flags, vars, visited, learned, rewards, hidden, ended, outcome — each
// list and map count-prefixed, each map in sorted key order.
func (e *StateEncoder) AppendState(b []byte, s *core.State) []byte {
	b = tagrec.AppendStr(b, s.Scenario)
	b = appendStrs(b, s.Inventory)
	b = appendMap(e, b, s.Flags, tagrec.AppendBool)
	b = appendMap(e, b, s.Vars, appendZigzag)
	b = appendMap(e, b, s.Visited, appendCount)
	b = appendMap(e, b, s.Learned, tagrec.AppendBool)
	b = appendStrs(b, s.Rewards)
	b = appendMap(e, b, s.Hidden, tagrec.AppendBool)
	b = tagrec.AppendBool(b, s.Ended)
	return tagrec.AppendStr(b, s.Outcome)
}

// appendMap writes m count-prefixed, in sorted key order, each value by put.
func appendMap[V any](e *StateEncoder, b []byte, m map[string]V, put func([]byte, V) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	e.keys = e.keys[:0]
	for k := range m {
		e.keys = append(e.keys, k)
	}
	slices.Sort(e.keys)
	for _, k := range e.keys {
		b = put(tagrec.AppendStr(b, k), m[k])
	}
	return b
}

func appendZigzag(b []byte, v int) []byte { return tagrec.AppendZigzag(b, int64(v)) }

// appendCount writes a count Reader.Int reads back; a negative one as 0.
func appendCount(b []byte, v int) []byte { return binary.AppendUvarint(b, uint64(max(v, 0))) }

func appendStrs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = tagrec.AppendStr(b, s)
	}
	return b
}

// maxCount bounds every decoded count; Reader.Count also bounds it by the
// bytes that remain, which is the bound that bites.
const maxCount = math.MaxInt32

// readMap reads appendMap's bytes back, each value by get.
func readMap[V any](r *tagrec.Reader, get func(*tagrec.Reader) (V, error)) (map[string]V, error) {
	n, err := r.Count(maxCount)
	if err != nil || n == 0 {
		return nil, err
	}
	m := make(map[string]V, n)
	for i := 0; i < n; i++ {
		k, err := r.Str()
		if err != nil {
			return nil, err
		}
		if m[k], err = get(r); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func readStrs(r *tagrec.Reader) ([]string, error) {
	n, err := r.Count(maxCount)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = r.Str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecodeState reads back AppendState's bytes, all of them: trailing bytes
// are refused. An empty list or map decodes to nil, as the JSON adapter's
// omitempty has it, so a client cannot tell the two routes apart; a
// restore gives the maps values before a session writes into them. Its
// errors carry no sentinel; callers wrap them in theirs.
func DecodeState(payload []byte) (*core.State, error) {
	r := &tagrec.Reader{B: payload}
	s := &core.State{}
	var err error
	fail := func(what string, err error) (*core.State, error) {
		return nil, fmt.Errorf("state %s: %w", what, err)
	}
	if s.Scenario, err = r.Str(); err != nil {
		return fail("scenario", err)
	}
	if s.Inventory, err = readStrs(r); err != nil {
		return fail("inventory", err)
	}
	if s.Flags, err = readMap(r, (*tagrec.Reader).Bool); err != nil {
		return fail("flags", err)
	}
	if s.Vars, err = readMap(r, (*tagrec.Reader).Zigzag); err != nil {
		return fail("vars", err)
	}
	if s.Visited, err = readMap(r, (*tagrec.Reader).Int); err != nil {
		return fail("visited", err)
	}
	if s.Learned, err = readMap(r, (*tagrec.Reader).Bool); err != nil {
		return fail("learned", err)
	}
	if s.Rewards, err = readStrs(r); err != nil {
		return fail("rewards", err)
	}
	if s.Hidden, err = readMap(r, (*tagrec.Reader).Bool); err != nil {
		return fail("hidden", err)
	}
	if s.Ended, err = r.Bool(); err != nil {
		return fail("ended", err)
	}
	if s.Outcome, err = r.Str(); err != nil {
		return fail("outcome", err)
	}
	if !r.Empty() {
		return nil, fmt.Errorf("state: %d trailing bytes", len(r.B))
	}
	return s, nil
}
