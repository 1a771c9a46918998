package telemetry

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/runtime"
	"repro/internal/tagrec"
)

// BatchContentType is the Content-Type of an ingest body: one batch as an
// internal/tagrec container ("VTLM"), the codec the play service's frames,
// its session envelope and the runtime snapshot share. Each event is a
// runtime.AppendEvent record, byte for byte the events an act reply carries.
const BatchContentType = "application/x-vgbl-telemetry"

// ErrBadBatch is wrapped by every ParseBatch rejection, so the handler (and
// the fuzzer) can tell a malformed body from an I/O failure.
var ErrBadBatch = errors.New("telemetry: bad batch")

const (
	batchMagic   = "VTLM"
	batchVersion = 1
	// maxBatchField bounds one record; the body as a whole is bounded by
	// Options.MaxBody.
	maxBatchField = 1 << 20
	// minEventBytes is the shortest event payload: a one-byte tick and two
	// empty strings.
	minEventBytes = 3
)

// Batch record tags. Singular records may come in any order; events are in
// session order.
const (
	btagCourse  = 1 // string
	btagSession = 2 // string
	btagStart   = 3 // string (absent = none)
	btagSeq     = 4 // uvarint ≤ MaxInt32 (absent = 0, no dedup)
	btagDone    = 5 // empty (absent = not the last batch)
	btagEvent   = 6 // repeated runtime.AppendEvent record
)

// EncodeBatch encodes a batch as an ingest body. A negative Seq is written
// as the uvarint of its two's complement, which ParseBatch refuses.
func EncodeBatch(b *Batch) []byte {
	size := 32 + len(b.Course) + len(b.Session) + len(b.Start)
	for i := range b.Events {
		size += 16 + len(b.Events[i].Kind) + len(b.Events[i].Detail)
	}
	out := tagrec.Begin(make([]byte, 0, size), batchMagic, batchVersion)
	out = tagrec.Append(out, btagCourse, b.Course)
	out = tagrec.Append(out, btagSession, b.Session)
	if b.Start != "" {
		out = tagrec.Append(out, btagStart, b.Start)
	}
	if b.Seq != 0 {
		out = tagrec.AppendUint(out, btagSeq, uint64(b.Seq))
	}
	if b.Done {
		out = tagrec.Append(out, btagDone, "")
	}
	for i := range b.Events {
		out = runtime.AppendEvent(out, btagEvent, &b.Events[i])
	}
	return tagrec.Finish(out, 0)
}

// ParseBatch parses an ingest body. It checks the container and every
// record; whether the batch names a course and a session is Validate's.
// The batch shares no memory with data. Every rejection wraps ErrBadBatch.
func ParseBatch(data []byte) (Batch, error) {
	var b Batch
	sc := tagrec.Open(data, batchMagic, 1, batchVersion, maxBatchField)
	// A first pass counts the event records long enough to hold an event
	// (a tick and two lengths, three bytes at least), so the slice that
	// holds them is one allocation, bounded by the bytes of the body.
	events := 0
	for count := sc; count.Next(); {
		if count.Tag == btagEvent && len(count.Payload) >= minEventBytes {
			events++
		}
	}
	if events > 0 {
		b.Events = make([]runtime.Event, 0, events)
	}
	for sc.Next() {
		switch sc.Tag {
		case btagCourse:
			b.Course = string(sc.Payload)
		case btagSession:
			b.Session = string(sc.Payload)
		case btagStart:
			b.Start = string(sc.Payload)
		case btagSeq:
			v, err := tagrec.Uint(sc.Payload, math.MaxInt32)
			if err != nil {
				return Batch{}, badBatch("seq: %v", err)
			}
			b.Seq = int(v)
		case btagDone:
			if len(sc.Payload) != 0 {
				return Batch{}, badBatch("done record carries %d bytes", len(sc.Payload))
			}
			b.Done = true
		case btagEvent:
			e, err := runtime.ReadEvent(sc.Payload)
			if err != nil {
				return Batch{}, badBatch("event %d: %v", len(b.Events), err)
			}
			b.Events = append(b.Events, e)
		default:
			// Additive extension from a newer writer; skip.
		}
	}
	if err := sc.Err(); err != nil {
		return Batch{}, badBatch("%v", err)
	}
	return b, nil
}

func badBatch(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadBatch, fmt.Sprintf(format, args...))
}
