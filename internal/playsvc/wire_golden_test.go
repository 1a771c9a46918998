package playsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runtime"
)

// TestWireBytesGolden pins the bytes of the two frame formats that cross
// the network — VACT, which a room's watch replies are too, and VRPL — on
// fixed inputs. The round-trip tests
// and the fuzzers compare each codec with itself; these hashes are what
// hold an encoder rewrite to "same bytes". They were recorded at the commit
// before the formats moved onto internal/tagrec (PR 23) and change
// only when a PR means to change the wire; such a PR re-records them and
// says so. The inputs cross every length-prefix width the encoders meet in
// practice: records shorter and longer than 127 bytes, nested strings
// likewise, negative and multi-byte varints. The two VRPL rows with an act
// error were re-recorded when that record dropped its retry-after and
// moved to a new tag; the two watch-reply rows were recorded when a
// room's watch became an act frame of its driver's acts, in place of the
// VWCH watch chunk.
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

	acts := []ActRequest{
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
	}
	act := EncodeActFrame(&BatchRequest{
		Session:      "classroom-0123456789abcdef",
		BaseSeq:      1 << 33,
		SeenEvents:   300,
		SeenMessages: 3,
		Acts:         acts,
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
		ActErr: &Error{Status: 429, Msg: "playsvc: node over capacity, retry later"},
	})
	minimal := EncodeReplyFrame(&BatchReply{Reply: &Reply{Session: "s", State: &core.State{Scenario: "classroom"}}})
	tails := EncodeReplyFrame(&BatchReply{Reply: &Reply{Session: "s", Tick: 1, Events: events[:1]}, ActErr: &Error{Status: 400, Msg: long}})

	// A room's watch replies: the create and its driver's three batches,
	// then the same log read from seq 4.
	room := &Room{id: "classroom-0123456789abcdef", course: "classroom"}
	room.logBatch(nil, 0x0123456789abcdef, 0)
	room.logBatch(acts[:4], 1<<63|1, 0)
	room.logBatch(acts[4:9], 2, 0)
	room.logBatch(acts[9:], 3, 0)
	watch := room.appendWatch(nil, 0, room.reach(0))
	watchFrom := room.appendWatch(nil, 4, room.reach(4))

	for _, g := range []struct {
		name  string
		bytes []byte
		want  string
	}{
		{"VACT batch of every kind", act, "75dea88ca1fb47fb67eecd36c18a9d30ba80a978f01520a247ae509a4442bc44"},
		{"VRPL with state, tails, results and an act error", reply, "9c7af0233866e1e278e865b00a40b8119b93f7a1976cfa96cd6b65bb1cd87d79"},
		{"VRPL minimal", minimal, "048fc5503142ff42cdc0a9ed8c67aa6cb36b30aaf86f9e106471174627404565"},
		{"VRPL tails and a long error", tails, "787caf4cf386bedb04d8b6bdc6b496e639760a0be7e525bf51fb002de7dfda67"},
		{"VACT watch reply with the create", watch, "dfff85039065b174a7d3c7ac1bf276b940619f5d595266c548ddfe88f34b5dd2"},
		{"VACT watch reply from seq 4", watchFrom, "780477914b9f363ca70bec053da03ff7de4ec5c167905b61928fe9660e4d078e"},
	} {
		sum := sha256.Sum256(g.bytes)
		if got := hex.EncodeToString(sum[:]); got != g.want {
			t.Errorf("%s: %d bytes hash to %s, recorded %s", g.name, len(g.bytes), got, g.want)
		}
	}
}

// TestOpFrameBytesGolden pins the bytes of the act frames that carry a
// session's create, resume and leave, and of their replies, on fixed
// inputs: a create alone (a thin client's Dial), a create in front of acts
// (a mirror's first batch), acts with the leave at their end (a mirror's
// last batch), a resume alone, from a fresh client (seen 0/0) and from
// one that holds a view (a fallback or a Sync), and a create with its room
// record (a room's driver's Dial). Frames without a create, resume or
// leave are TestWireBytesGolden's and keep its bytes. A change
// that means to alter these formats re-records the hashes and says so.
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
	resume := EncodeActFrame(&BatchRequest{Session: session, Resume: true})
	resumeSeen := EncodeActFrame(&BatchRequest{Session: session, Resume: true, SeenEvents: 40, SeenMessages: 6})
	roomCreate := EncodeActFrame(&BatchRequest{Session: session, Create: "classroom", Room: true})

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
		{"VACT resume", resume, "48b51d838d9cb843f652205d5dc85eb047802619692653e14cfc51865cbfc18f"},
		{"VACT resume with seen-counts", resumeSeen, "35a0c5a5cbb50e6a51f58dfd39dff867c97a966c32fb8e2b002c02c386c9ae42"},
		{"VACT room create", roomCreate, "7080d6670d8b7df8435ffb34ba938e344e2d560e42c9c6e3970126adaff0a2fe"},
	} {
		sum := sha256.Sum256(g.bytes)
		if got := hex.EncodeToString(sum[:]); got != g.want {
			t.Errorf("%s: %d bytes hash to %s, recorded %s", g.name, len(g.bytes), got, g.want)
		}
	}
}
