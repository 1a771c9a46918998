package telemetry

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	goruntime "runtime"
	"testing"

	"repro/internal/runtime"
	"repro/internal/tagrec"
)

const goldenBatch = "testdata/batch.vtlm"

// goldenBatchValue is the batch testdata/batch.vtlm holds: one whole
// classroom session, first and last batch at once, so the file is also a
// curl fixture a fresh server answers 202 (and a replay of it, 202 again).
func goldenBatchValue() Batch {
	return Batch{Course: "classroom", Session: "golden-1", Start: "classroom", Seq: 1, Events: sessionEvents(), Done: true}
}

// postBatch posts one batch to the ingest endpoint as its frame.
func postBatch(url string, b Batch) (*http.Response, error) {
	return http.Post(url+IngestPath, BatchContentType, bytes.NewReader(EncodeBatch(&b)))
}

// batchEvents is an n-event slice of the classroom stream.
func batchEvents(n int) []runtime.Event {
	src := sessionEvents()
	out := make([]runtime.Event, n)
	for i := range out {
		out[i] = src[i%len(src)]
		out[i].Tick = i
	}
	return out
}

// TestBatchFrameGolden pins the ingest wire: EncodeBatch of a fixed batch
// is the committed file byte for byte, the file parses back to the batch,
// and the handler stores it (202) and absorbs its replay.
func TestBatchFrameGolden(t *testing.T) {
	want, err := os.ReadFile(goldenBatch)
	if err != nil {
		t.Fatal(err)
	}
	b := goldenBatchValue()
	if got := EncodeBatch(&b); !bytes.Equal(got, want) {
		t.Fatalf("EncodeBatch = %x\nwant %s = %x", got, goldenBatch, want)
	}
	if got, err := ParseBatch(want); err != nil || !reflect.DeepEqual(got, b) {
		t.Fatalf("ParseBatch(%s) = %+v, %v; want %+v", goldenBatch, got, err, b)
	}

	s := NewService(Options{IdleTimeout: -1})
	defer s.Close()
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, IngestPath, bytes.NewReader(want))
		req.Header.Set("Content-Type", BatchContentType)
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("post %d of %s: %d %s", i+1, goldenBatch, rec.Code, rec.Body)
		}
	}
	if cs := s.Store().Snapshot()["classroom"]; cs.SessionsEnded != 1 || cs.Events != len(b.Events) {
		t.Fatalf("store after the file and its replay: %+v", cs)
	}
}

// TestIngestBodyBound: the body is read into one buffer only within
// Options.MaxBody. A declared Content-Length past it is refused unread (no
// buffer of that size is made), a body of unknown length is cut at the
// bound, and one within it is applied.
func TestIngestBodyBound(t *testing.T) {
	golden, err := os.ReadFile(goldenBatch)
	if err != nil {
		t.Fatal(err)
	}
	s := NewService(Options{MaxBody: len(golden), IdleTimeout: -1})
	defer s.Close()
	post := func(body io.Reader, length int64) int {
		req := httptest.NewRequest(http.MethodPost, IngestPath, body)
		req.ContentLength = length
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec.Code
	}
	unread := &readCounter{r: bytes.NewReader(golden)}
	if code := post(unread, 1<<50); code != http.StatusBadRequest || unread.n != 0 {
		t.Errorf("declared 1 PiB: %d after reading %d bytes; want 400 unread", code, unread.n)
	}
	if code := post(bytes.NewReader(append(bytes.Clone(golden), 0)), -1); code != http.StatusBadRequest {
		t.Errorf("unknown length, one byte past the bound: %d, want 400", code)
	}
	if code := post(bytes.NewReader(golden), -1); code != http.StatusAccepted {
		t.Errorf("unknown length, at the bound: %d, want 202", code)
	}
	if n := stat(t, s.Snapshot(), "bad_requests"); n != 2 {
		t.Errorf("bad_requests = %d, want 2", n)
	}
}

// TestParseBatchRejections: every malformed body is refused with
// ErrBadBatch, and a seq past int32 is refused rather than wrapped.
func TestParseBatchRejections(t *testing.T) {
	b := goldenBatchValue()
	good := EncodeBatch(&b)
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x10
	var pastWire int64 = math.MaxInt32 + 1 // as an int it wraps negative on 32-bit targets, refused there too
	huge, neg := b, b
	huge.Seq, neg.Seq = int(pastWire), -1
	for name, data := range map[string][]byte{
		"empty":          nil,
		"json":           []byte(`{"course":"c","session":"s"}`),
		"truncated":      good[:len(good)-1],
		"bit flipped":    flipped,
		"seq past int32": EncodeBatch(&huge),
		"negative seq":   EncodeBatch(&neg),
	} {
		if got, err := ParseBatch(data); !errors.Is(err, ErrBadBatch) {
			t.Errorf("%s: ParseBatch = %+v, %v; want ErrBadBatch", name, got, err)
		}
	}
}

// TestParseBatchAllocs pins what decoding a 32-event batch (the harness's
// FlushEvery) allocates: the events slice, once, and each event's two
// strings plus the batch's three. The JSON decode it replaced made 81.
func TestParseBatchAllocs(t *testing.T) {
	b := Batch{Course: "classroom", Session: "classroom-0123456789abcdef", Start: "classroom", Seq: 7, Events: batchEvents(32)}
	data := EncodeBatch(&b)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseBatch(data); err != nil {
			t.Fatal(err)
		}
	})
	if max := 1 + 3 + 2*32.0; allocs > max {
		t.Fatalf("ParseBatch of 32 events: %v allocs, want ≤ %v", allocs, max)
	}

	// A hostile body of 100 000 empty event records is refused, and the
	// events slice is not sized by records too short to hold an event.
	hostile := tagrec.Begin(nil, batchMagic, batchVersion)
	for i := 0; i < 100_000; i++ {
		hostile = tagrec.Append(hostile, btagEvent, "")
	}
	hostile = tagrec.Finish(hostile, 0)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	_, err := ParseBatch(hostile)
	goruntime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadBatch) {
		t.Fatalf("hostile body: %v", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > uint64(len(hostile)) {
		t.Fatalf("refusing a %d-byte body allocated %d bytes", len(hostile), n)
	}
}

// FuzzParseBatch holds the ingest parser to the hostile-input bar: it never
// panics; what it rejects wraps ErrBadBatch; what it accepts is no larger
// than the input (one event per five body bytes at most, strings no longer
// than the body), so the decode allocates within a fixed multiple of the
// bytes it was sent; and it is differential — an accepted batch re-encodes
// to a body that parses back to the same batch. Each input is also parsed
// with a checksum appended, so mutations reach the records behind it.
func FuzzParseBatch(f *testing.F) {
	golden, err := os.ReadFile(goldenBatch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	flipped := bytes.Clone(golden)
	flipped[len(flipped)/3] ^= 0x04
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := binary.BigEndian.AppendUint32(bytes.Clone(data), crc32.ChecksumIEEE(data))
		for _, body := range [][]byte{data, sealed} {
			b, err := ParseBatch(body)
			if err != nil {
				if !errors.Is(err, ErrBadBatch) {
					t.Fatalf("rejection without ErrBadBatch: %v", err)
				}
				continue
			}
			if cap(b.Events) > len(body)/5 {
				t.Fatalf("%d-byte body: room for %d events", len(body), cap(b.Events))
			}
			text := len(b.Course) + len(b.Session) + len(b.Start)
			for _, e := range b.Events {
				text += len(e.Kind) + len(e.Detail)
			}
			if text > len(body) {
				t.Fatalf("%d-byte body: %d bytes of strings", len(body), text)
			}
			again, err := ParseBatch(EncodeBatch(&b))
			if err != nil {
				t.Fatalf("re-encoded %+v: %v", b, err)
			}
			if !reflect.DeepEqual(again, b) {
				t.Fatalf("round trip changed the batch:\n%+v\n%+v", b, again)
			}
		}
	})
}

// BenchmarkParseBatch is the ingest decode alone, on a 32-event batch.
func BenchmarkParseBatch(b *testing.B) {
	batch := Batch{Course: "classroom", Session: "classroom-0123456789abcdef", Start: "classroom", Seq: 7, Events: batchEvents(32)}
	data := EncodeBatch(&batch)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseBatch(data); err != nil {
			b.Fatal(err)
		}
	}
}
