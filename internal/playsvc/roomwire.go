// Watch-chunk framing: the server-push wire format for room fan-out.
//
// A watch chunk is a 4-byte big-endian header length, a tagged-record
// header (an internal/tagrec container, like the act frames), then the raw
// 24-bit RGB pixels. The pixels ride OUTSIDE
// the CRC on purpose: the header is encoded into a small recycled buffer
// and the pixel payload is the publication's shared immutable slice, so
// delivery is two writes and zero frame copies. A chunk self-describes its
// pixel length, which must be exactly its geometry's 3·W·H.
package playsvc

import (
	"encoding/binary"

	"repro/internal/runtime"
	"repro/internal/tagrec"
)

const watchMagic = "VWCH"

// Watch-chunk record tags. Tag 4 is retired: it carried a per-watcher
// skip count, which a watcher now reads from the gap between the seqs it
// receives.
const (
	wtagSeq          = 1  // uvarint publication sequence number
	wtagTick         = 2  // uvarint session tick at publish
	wtagGeom         = 3  // uvarint w, h, pixLen
	wtagEventStart   = 5  // uvarint absolute index of the first event below
	wtagEvent        = 6  // repeated: tick uvarint, kind str, detail str
	wtagEventCount   = 7  // uvarint total session events so far (ack target)
	wtagMessageStart = 8  // uvarint absolute index of the first message below
	wtagMessage      = 9  // repeated string
	wtagMessageCount = 10 // uvarint total messages so far (ack target)
	wtagQuiz         = 11 // string pending quiz id (absent = none)
)

// watchTails is the room-side tail view appendWatchChunk serializes; the
// caller holds Room.mu while building it.
type watchTails struct {
	eventBase    int
	events       []runtime.Event
	eventCount   int
	msgBase      int
	messages     []string
	messageCount int
	quiz         string
}

// appendWatchChunk encodes one publication header into dst (reused across
// polls; zero allocations once dst has capacity): length prefix, tagged
// records, CRC. The pixel payload is NOT appended — the caller writes
// p.pix directly after the returned header.
func appendWatchChunk(dst []byte, p *pub, t watchTails, seenEvents, seenMessages int) []byte {
	out := append(dst[:0], 0, 0, 0, 0) // length prefix, patched below
	out = tagrec.Begin(out, watchMagic, frameVersion)
	out = tagrec.AppendUint(out, wtagSeq, uint64(p.seq))
	out = tagrec.AppendUint(out, wtagTick, uint64(p.tick))
	out, mark := tagrec.BeginRecord(out, wtagGeom)
	out = binary.AppendUvarint(out, uint64(p.w))
	out = binary.AppendUvarint(out, uint64(p.h))
	out = binary.AppendUvarint(out, uint64(len(p.pix)))
	out = tagrec.EndRecord(out, mark)

	if from := max(seenEvents-t.eventBase, 0); from < len(t.events) {
		out = tagrec.AppendUint(out, wtagEventStart, uint64(t.eventBase+from))
		for i := from; i < len(t.events); i++ {
			out = runtime.AppendEvent(out, wtagEvent, &t.events[i])
		}
	}
	out = tagrec.AppendUint(out, wtagEventCount, uint64(t.eventCount))

	if from := max(seenMessages-t.msgBase, 0); from < len(t.messages) {
		out = tagrec.AppendUint(out, wtagMessageStart, uint64(t.msgBase+from))
		for _, m := range t.messages[from:] {
			out = tagrec.Append(out, wtagMessage, m)
		}
	}
	out = tagrec.AppendUint(out, wtagMessageCount, uint64(t.messageCount))
	if t.quiz != "" {
		out = tagrec.Append(out, wtagQuiz, t.quiz)
	}
	out = tagrec.Finish(out, 4)
	binary.BigEndian.PutUint32(out[:4], uint32(len(out)-4))
	return out
}

// WatchUpdate is one parsed watch chunk: the publication metadata plus the
// event/message tails beyond the watcher's presented seen-counts. The
// pixel payload travels separately (PixLen bytes following the header).
type WatchUpdate struct {
	Seq    int64
	Tick   int
	W, H   int
	PixLen int

	EventStart   int // absolute index of Events[0]
	Events       []runtime.Event
	EventCount   int // total events so far; the next request's ack
	MessageStart int
	Messages     []string
	MessageCount int

	Quiz string // pending quiz id ("" = none)
}

// ParseWatchChunk parses one chunk header (the bytes between the length
// prefix and the pixels). Every rejection wraps ErrBadFrame.
func ParseWatchChunk(header []byte) (*WatchUpdate, error) {
	u := &WatchUpdate{}
	sawGeom := false
	sc := tagrec.Open(header, watchMagic, 1, frameVersion, maxFrameField)
	for sc.Next() {
		payload := sc.Payload
		r := tagrec.Reader{B: payload}
		var err error
		switch sc.Tag {
		case wtagSeq:
			v, err := r.Uvarint()
			if err != nil {
				return nil, frameBadf("malformed seq")
			}
			u.Seq = int64(v)
		case wtagTick:
			if u.Tick, err = r.Int(); err != nil {
				return nil, frameBadf("malformed tick")
			}
		case wtagGeom:
			if u.W, err = r.Int(); err != nil {
				return nil, frameBadf("malformed width")
			}
			if u.H, err = r.Int(); err != nil {
				return nil, frameBadf("malformed height")
			}
			if u.PixLen, err = r.Int(); err != nil {
				return nil, frameBadf("malformed pixel length")
			}
			// The geometry sizes the caller's frame buffer, so it is held
			// to maxFrameDim and to itself before anything is allocated.
			if u.W < 1 || u.H < 1 || u.W > maxFrameDim || u.H > maxFrameDim {
				return nil, frameBadf("geometry %dx%d outside 1..%d", u.W, u.H, maxFrameDim)
			}
			if u.PixLen != 3*u.W*u.H {
				return nil, frameBadf("pixel payload claims %d bytes, a %dx%d frame needs %d", u.PixLen, u.W, u.H, 3*u.W*u.H)
			}
			if u.PixLen > maxProxyBody {
				return nil, frameBadf("pixel payload claims %d bytes", u.PixLen)
			}
			sawGeom = true
		case wtagEventStart:
			if u.EventStart, err = r.Int(); err != nil {
				return nil, frameBadf("malformed event start")
			}
		case wtagEvent:
			e, err := readEvent(payload)
			if err != nil {
				return nil, err
			}
			u.Events = append(u.Events, e)
		case wtagEventCount:
			if u.EventCount, err = r.Int(); err != nil {
				return nil, frameBadf("malformed event count")
			}
		case wtagMessageStart:
			if u.MessageStart, err = r.Int(); err != nil {
				return nil, frameBadf("malformed message start")
			}
		case wtagMessage:
			u.Messages = append(u.Messages, string(payload))
		case wtagMessageCount:
			if u.MessageCount, err = r.Int(); err != nil {
				return nil, frameBadf("malformed message count")
			}
		case wtagQuiz:
			u.Quiz = string(payload)
		default:
			// Additive extension from a newer writer; skip.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, frameBadf("%v", err)
	}
	if !sawGeom {
		return nil, frameBadf("missing geometry record")
	}
	return u, nil
}
