package playsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runtime"
)

// TestWireBytesGolden pins the bytes of the three frame formats that cross
// the network — VACT, VRPL and VWCH — on fixed inputs. The round-trip tests
// and the fuzzers compare each codec with itself; these hashes are what
// hold an encoder rewrite to "same bytes". They were recorded at the commit
// before the formats moved onto internal/tagrec (PR 23) and change
// only when a PR means to change the wire; such a PR re-records them and
// says so. The inputs cross every length-prefix width the encoders meet in
// practice: records shorter and longer than 127 bytes, nested strings
// likewise, negative and multi-byte varints.
func TestWireBytesGolden(t *testing.T) {
	long := strings.Repeat("a long detail that needs a two-byte length prefix; ", 4)
	state := &core.State{
		Scenario:  "market",
		Inventory: []string{"coin", "ram module", long},
		Flags:     map[string]bool{"door-open": true, "alarm": false},
		Vars:      map[string]int{"score": -3, "hp": 12, "big": 1 << 20},
		Visited:   map[string]int{"classroom": 2, "market": 1},
		Learned:   map[string]bool{"ram-basics": true},
		Rewards:   []string{"badge"},
		Hidden:    map[string]bool{"stall-ram": true},
		Ended:     true,
		Outcome:   "victory",
	}
	events := []runtime.Event{
		{Tick: 3, Kind: "take", Detail: "coin"},
		{Tick: 300, Kind: "say", Detail: long},
		{Tick: 70000, Kind: "quiz", Detail: "q-install correct"},
	}
	messages := []string{"hello", long, ""}

	act := EncodeActFrame(&BatchRequest{
		Session:      "classroom-0123456789abcdef",
		BaseSeq:      1 << 33,
		SeenEvents:   300,
		SeenMessages: 3,
		Acts: []ActRequest{
			{Kind: ActClick, X: -12, Y: 99},
			{Kind: ActExamine, Object: "computer"},
			{Kind: ActTalk, Object: long},
			{Kind: ActTake, Object: "desk-coin"},
			{Kind: ActUse, Item: "ram module", Object: "computer"},
			{Kind: ActSelect, Item: "coin"},
			{Kind: ActClear},
			{Kind: ActQuiz, Quiz: "q-install", Choice: 2},
			{Kind: ActGoto, Object: "market"},
			{Kind: ActTick, Ticks: 500},
		},
	})
	reply := EncodeReplyFrame(&BatchReply{
		Reply: &Reply{
			Session:      "classroom-0123456789abcdef",
			Tick:         70001,
			EventCount:   317,
			MessageCount: 6,
			Quiz:         "q-install",
			Resumed:      true,
			State:        state,
			Events:       events,
			Messages:     messages,
		},
		Results: []ActResult{
			{},
			{HasTook: true, Took: true},
			{HasTook: true},
			{HasCorrect: true, Correct: true},
			{HasCorrect: true},
		},
		ActErr: &Error{Status: 429, RetryAfter: 2, Msg: "playsvc: node over capacity, retry later"},
	})
	minimal := EncodeReplyFrame(&BatchReply{Reply: &Reply{Session: "s", State: &core.State{Scenario: "classroom"}}})
	tails := EncodeReplyFrame(&BatchReply{Reply: &Reply{Session: "s", Tick: 1, Events: events[:1]}, ActErr: &Error{Status: 400, Msg: long}})

	pix := make([]byte, 3*160*120)
	watch := appendWatchChunk(nil, &pub{seq: 1 << 40, tick: 70001, w: 160, h: 120, pix: pix}, 9, watchTails{
		eventBase: 298, events: events, eventCount: 301,
		msgBase: 2, messages: messages, messageCount: 5,
		quiz: "q-diagnosis",
	}, 299, 3)
	idle := appendWatchChunk(watch[:0:0], &pub{seq: 1, w: 1, h: 1, pix: pix[:3]}, 0, watchTails{}, 0, 0)

	for _, g := range []struct {
		name  string
		bytes []byte
		want  string
	}{
		{"VACT batch of every kind", act, "75dea88ca1fb47fb67eecd36c18a9d30ba80a978f01520a247ae509a4442bc44"},
		{"VRPL with state, tails, results and an act error", reply, "35e30b7cae788ba5ea5fb6cfec88fdf5f65674d0fb586079ecad39db1d8ff2f2"},
		{"VRPL minimal", minimal, "048fc5503142ff42cdc0a9ed8c67aa6cb36b30aaf86f9e106471174627404565"},
		{"VRPL tails and a long error", tails, "6d57b6c06ad26bfc400506829b4f06ac313bb589f1dfe71b0ed661d6ae31c4ce"},
		{"VWCH with tails past the ack", watch, "346d392eac0e61ecb7b830c0e6352ea991b50f6cfe414cb078adb1180553f682"},
		{"VWCH idle", idle, "e35acd4e457d76ef563afcfea8bd30755809a9d436654286e9854bbd3ce3de24"},
	} {
		sum := sha256.Sum256(g.bytes)
		if got := hex.EncodeToString(sum[:]); got != g.want {
			t.Errorf("%s: %d bytes hash to %s, recorded %s", g.name, len(g.bytes), got, g.want)
		}
	}
}

// TestOpFrameBytesGolden pins the bytes of the act frames that carry a
// session's create and leave, and of their replies, on fixed inputs: a
// create alone (a thin client's Dial), a create in front of acts (a
// mirror's first batch) and acts with the leave at their end (a mirror's
// last batch). Frames without a create or leave are TestWireBytesGolden's
// and keep its bytes. A PR that means to change these formats re-records
// the hashes and says so.
func TestOpFrameBytesGolden(t *testing.T) {
	session := "classroom-0123456789abcdef"
	state := &core.State{
		Scenario:  "classroom",
		Inventory: []string{"coin"},
		Flags:     map[string]bool{"met-teacher": true},
		Vars:      map[string]int{"score": 2},
		Visited:   map[string]int{"classroom": 1},
	}
	entry := []runtime.Event{
		{Tick: 0, Kind: "enter", Detail: "classroom"},
		{Tick: 0, Kind: "say", Detail: "Welcome to the computer lab."},
	}
	acts := []ActRequest{
		{Kind: ActTalk, Object: "teacher"},
		{Kind: ActTake, Object: "desk-coin"},
		{Kind: ActTick, Ticks: 4},
	}

	create := EncodeActFrame(&BatchRequest{Session: session, Create: "classroom"})
	createActs := EncodeActFrame(&BatchRequest{Session: session, Create: "classroom", BaseSeq: 1, Acts: acts})
	tailLeave := EncodeActFrame(&BatchRequest{Session: session, BaseSeq: 17, SeenEvents: 40, SeenMessages: 6,
		Acts: append(append([]ActRequest(nil), acts...), ActRequest{Kind: ActLeave})})

	created := &Reply{Session: session, Course: "classroom", Width: 160, Height: 120, FPS: 10,
		EventCount: 2, MessageCount: 1, State: state, Events: entry, Messages: []string{"Welcome to the computer lab."}}
	createReply := EncodeReplyFrame(&BatchReply{Reply: created})
	acted := *created
	acted.Tick, acted.EventCount = 4, 5
	acted.Events = append(append([]runtime.Event(nil), entry...),
		runtime.Event{Tick: 0, Kind: "talk", Detail: "teacher"},
		runtime.Event{Tick: 0, Kind: "take", Detail: "desk-coin"},
		runtime.Event{Tick: 4, Kind: "tick", Detail: "4"})
	createActsReply := EncodeReplyFrame(&BatchReply{Reply: &acted,
		Results: []ActResult{{}, {HasTook: true, Took: true}, {}}})
	tailLeaveReply := EncodeReplyFrame(&BatchReply{
		Reply: &Reply{Session: session, Tick: 90, EventCount: 43, MessageCount: 7,
			Events:   []runtime.Event{{Tick: 86, Kind: "talk", Detail: "teacher"}, {Tick: 90, Kind: "end", Detail: "victory"}},
			Messages: []string{"Well done."}},
		Results: []ActResult{{}, {HasTook: true}, {}, {}},
	})

	for _, g := range []struct {
		name  string
		bytes []byte
		want  string
	}{
		{"VACT create", create, "c720bb92cd0e45f281c4e1209b04a81a6d6447b47d73d6534b0f7e76672b5d1f"},
		{"VACT create and acts", createActs, "55e07b896bb4b044a6dfbfe1705b3f18df14c99f1b444aceeb57d94ecb986753"},
		{"VACT acts and leave", tailLeave, "c964bd3d1306c9acbb808c2b31a7e0324a01ed00b03f74ac01e63ccf2202bfbe"},
		{"VRPL create", createReply, "87b1335d17bd21a84b96b5e4e9e130ff738fca6961beada84475850460a3a966"},
		{"VRPL create and acts", createActsReply, "a97d68b39b991a58447e4e2eec9278d1d6eb1741d5efb5285b848fb6defac4f3"},
		{"VRPL acts and leave", tailLeaveReply, "1771179cdce89ac7f000af8102e7921e7cbeb32e33c5d14ddcef47787c8a8a77"},
	} {
		sum := sha256.Sum256(g.bytes)
		if got := hex.EncodeToString(sum[:]); got != g.want {
			t.Errorf("%s: %d bytes hash to %s, recorded %s", g.name, len(g.bytes), got, g.want)
		}
	}
}
