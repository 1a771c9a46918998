package playsvc

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/tagrec"
)

func sampleBatch() *BatchRequest {
	return &BatchRequest{
		Session:      "classroom-0000abcd",
		BaseSeq:      41,
		SeenEvents:   7,
		SeenMessages: 3,
		Acts: []ActRequest{
			{Kind: ActClick, X: -12, Y: 99},
			{Kind: ActExamine, Object: "computer"},
			{Kind: ActUse, Item: "ram module", Object: "computer"},
			{Kind: ActQuiz, Quiz: "q-install", Choice: 2},
			{Kind: ActTick, Ticks: 5},
		},
	}
}

func TestActFrameRoundTrip(t *testing.T) {
	want := sampleBatch()
	got, err := ParseActFrame(EncodeActFrame(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestReplyFrameRoundTrip(t *testing.T) {
	want := &BatchReply{
		Reply: &Reply{
			Session:      "classroom-0000abcd",
			Tick:         123,
			EventCount:   17,
			MessageCount: 6,
			Quiz:         "q-install",
			Resumed:      true,
			State: &core.State{
				Scenario:  "market",
				Inventory: []string{"coin", "ram module"},
				Flags:     map[string]bool{"door-open": true, "alarm": false},
				Vars:      map[string]int{"score": -3, "hp": 12},
				Visited:   map[string]int{"classroom": 2, "market": 1},
				Learned:   map[string]bool{"ram-basics": true},
				Rewards:   []string{"badge"},
				Hidden:    map[string]bool{"stall-ram": true},
				Ended:     true,
				Outcome:   "victory",
			},
			Events: []runtime.Event{
				{Tick: 3, Kind: "take", Detail: "coin"},
				{Tick: 9, Kind: "quiz", Detail: "q-install correct"},
			},
			Messages: []string{"hello", "use the coin"},
		},
		Results: []ActResult{
			{},
			{HasTook: true, Took: true},
			{HasCorrect: true, Correct: false},
		},
		ActErr: &Error{Status: 400, Msg: "playsvc: no such quiz"},
	}
	got, err := ParseReplyFrame(EncodeReplyFrame(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplyFrameMinimal pins the nil-vs-empty conventions: an empty state
// section decodes to nil maps, exactly like the JSON route's omitempty —
// the client mirror must not be able to tell the protocols apart.
func TestReplyFrameMinimal(t *testing.T) {
	want := &BatchReply{Reply: &Reply{
		Session: "s",
		State:   &core.State{Scenario: "classroom"},
	}}
	got, err := ParseReplyFrame(EncodeReplyFrame(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestFrameSessionID(t *testing.T) {
	b := EncodeActFrame(sampleBatch())
	id, err := frameSessionID(b)
	if err != nil {
		t.Fatal(err)
	}
	if id != "classroom-0000abcd" {
		t.Fatalf("session = %q", id)
	}
	// The prefix parse must not need the tail: truncate right after the
	// header records and routing still works (the node, not the gateway,
	// rejects the mangled frame).
	if id, err := frameSessionID(b[:len(actMagic)+1+2+len(id)+4]); err != nil || id != "classroom-0000abcd" {
		t.Fatalf("prefix parse: id=%q err=%v", id, err)
	}
	// A frame whose first record is not the session id does not route.
	bad := append([]byte(actMagic), 1)               // magic + version
	bad = tagrec.Append(bad, atagBaseSeq, []byte{7}) // wrong leading record
	if _, err := frameSessionID(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

func TestParseActFrameRejections(t *testing.T) {
	valid := EncodeActFrame(sampleBatch())
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x40

	empty := &BatchRequest{Session: "s"}
	emptyFrame := EncodeActFrame(empty)

	leave := sampleBatch()
	leave.Acts = []ActRequest{{Kind: ActLeave}}

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte("VA")},
		{"bad magic", append([]byte("XXXX"), valid[4:]...)},
		{"flipped bit", corrupt},
		{"truncated", valid[:len(valid)-6]},
		{"no acts", emptyFrame},
		{"reply magic", EncodeReplyFrame(&BatchReply{Reply: &Reply{Session: "s"}})},
	}
	for _, tc := range cases {
		if _, err := ParseActFrame(tc.data); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", tc.name, err)
		}
	}
	// A leave act has no wire form at all: it cannot even be encoded into
	// a parseable frame (kind 0 is rejected).
	if _, err := ParseActFrame(EncodeActFrame(leave)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("leave act encoded: err = %v, want ErrBadFrame", err)
	}
}

// TestActFrameDeterministic pins byte-stable encoding: identical requests
// produce identical frames (map ordering is sorted in the state codec and
// absent from act frames entirely).
func TestActFrameDeterministic(t *testing.T) {
	a, b := EncodeActFrame(sampleBatch()), EncodeActFrame(sampleBatch())
	if string(a) != string(b) {
		t.Fatal("act frame encoding is not deterministic")
	}
}

// FuzzParseActFrame holds the binary act parser to the FuzzRestoreSession
// bar: arbitrary input never panics, never allocates unboundedly, and
// either parses cleanly (and then re-encodes through a round trip) or
// fails with a typed ErrBadFrame.
func FuzzParseActFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("VACT"))
	f.Add(EncodeActFrame(sampleBatch()))
	f.Add(EncodeActFrame(&BatchRequest{Session: "s", Acts: []ActRequest{{Kind: ActClick}}}))
	long := EncodeActFrame(sampleBatch())
	f.Add(long[:len(long)-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseActFrame(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped rejection: %v", err)
			}
			if req != nil {
				t.Fatal("non-nil request alongside error")
			}
			return
		}
		if req.Session == "" || len(req.Acts) == 0 || len(req.Acts) > maxFrameActs {
			t.Fatalf("parsed frame violates invariants: %+v", req)
		}
		// Accepted input must survive a re-encode round trip (unknown
		// tags are dropped, so compare the parsed forms).
		again, err := ParseActFrame(EncodeActFrame(req))
		if err != nil {
			t.Fatalf("re-encode rejected: %v", err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("re-encode diverged:\n got %+v\nwant %+v", again, req)
		}
	})
}

// FuzzParseReplyFrame pins the same no-panic/typed-error bar for the
// client-side parser — a hostile server (or a corrupting middlebox) must
// not be able to crash a learner.
func FuzzParseReplyFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("VRPL"))
	f.Add(EncodeReplyFrame(&BatchReply{Reply: &Reply{Session: "s", State: &core.State{Scenario: "x"}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := ParseReplyFrame(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		if out.Reply == nil || out.Reply.Session == "" {
			t.Fatalf("parsed reply violates invariants: %+v", out)
		}
		again, err := ParseReplyFrame(EncodeReplyFrame(out))
		if err != nil {
			t.Fatalf("re-encode rejected: %v", err)
		}
		if !reflect.DeepEqual(again, out) {
			t.Fatalf("re-encode diverged:\n got %+v\nwant %+v", again, out)
		}
	})
}

// FuzzParseWatchChunk holds the watch-chunk parser — what a watcher runs on
// whatever a server (or a corrupting middlebox) sends — to the same bar:
// arbitrary input never panics, every rejection is a typed ErrBadFrame, and
// an accepted chunk's geometry is in range and agrees with its pixel
// length, so the frame buffer it sizes is always a whole W×H frame.
func FuzzParseWatchChunk(f *testing.F) {
	tails := watchTails{
		eventBase: 2, events: []runtime.Event{{Tick: 3, Kind: "talk", Detail: "teacher"}}, eventCount: 3,
		messages: []string{"hello class"}, messageCount: 1,
		quiz: "q-diagnosis",
	}
	// Seeds are chunk headers as the client sees them: appendWatchChunk
	// output without its 4-byte length prefix.
	for _, p := range []*pub{
		{seq: 1, w: 160, h: 120, pix: make([]byte, 3*160*120)},
		{seq: 9, tick: 40, w: 1, h: 1, pix: make([]byte, 3)},
		{seq: 2, w: 1000, h: 1000, pix: make([]byte, 3)}, // geometry and length disagree
		{seq: 3, w: 0, h: 120},
	} {
		f.Add(appendWatchChunk(nil, p, 5, tails, 0, 0)[4:])
	}
	f.Add([]byte{})
	f.Add([]byte("VWCH"))
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := ParseWatchChunk(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped rejection: %v", err)
			}
			if u != nil {
				t.Fatal("non-nil update alongside error")
			}
			return
		}
		if u.W < 1 || u.H < 1 || u.W > maxFrameDim || u.H > maxFrameDim || u.PixLen != 3*u.W*u.H {
			t.Fatalf("accepted chunk has geometry %dx%d with %d pixel bytes", u.W, u.H, u.PixLen)
		}
	})
}

// TestAppendWatchChunkAllocatesNothing: a watcher's poll is answered out of
// its recycled header buffer — tails past the ack included, every nested
// record closed in place.
func TestAppendWatchChunkAllocatesNothing(t *testing.T) {
	p := &pub{seq: 7, tick: 40, w: 160, h: 120, pix: make([]byte, 3*160*120)}
	tails := watchTails{
		eventBase: 2, events: []runtime.Event{{Tick: 3, Kind: "talk", Detail: strings.Repeat("teacher ", 40)}}, eventCount: 3,
		messages: []string{"hello class"}, messageCount: 1,
		quiz: "q-diagnosis",
	}
	dst := appendWatchChunk(nil, p, 5, tails, 0, 0)
	if allocs := testing.AllocsPerRun(100, func() { dst = appendWatchChunk(dst, p, 5, tails, 0, 0) }); allocs != 0 {
		t.Fatalf("appendWatchChunk allocates %.0f times per chunk", allocs)
	}
	if u, err := ParseWatchChunk(dst[4:]); err != nil || len(u.Events) != 1 || u.Events[0] != tails.events[0] {
		t.Fatalf("the chunk it wrote parses to %+v, %v", u, err)
	}
}
