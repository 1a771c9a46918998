package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/content"
	"repro/internal/media/studio"
	"repro/internal/runtime"
)

// TestSaveLoadResumesExactly: half the classroom mission, save, load into
// a fresh REPL and finish it there — the inventory it lists, the
// transcript, the tick clock, the state and the frame it presents must
// be the uninterrupted run's.
func TestSaveLoadResumesExactly(t *testing.T) {
	blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 8})
	if err != nil {
		t.Fatal(err)
	}
	firstHalf := `talk teacher
talk teacher
examine computer
answer 2
take desk-coin
tick 5
click 140 100
look
tick 3
`
	secondHalf := `take stall-ram
answer 1
inv
click 140 100
tick 2
use ram module computer
inv
answer 1
`
	play := func(in string) (*player, string) {
		t.Helper()
		p, err := newPlayer(blob)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		p.repl(strings.NewReader(in), &out)
		return p, out.String()
	}
	inventories := func(out string) (lines []string) {
		for _, l := range strings.Split(out, "\n") {
			if i := strings.Index(l, "inventory:"); i >= 0 {
				lines = append(lines, l[i:])
			}
		}
		return lines
	}

	full, fullOut := play(firstHalf + secondHalf)
	if !full.s.Ended() || !strings.Contains(fullOut, "GAME OVER") {
		t.Fatalf("the uninterrupted run did not finish the mission:\n%s", fullOut)
	}
	saved := filepath.Join(t.TempDir(), "game.log")
	play(firstHalf + "save " + saved + "\n")
	resumed, resumedOut := play("load " + saved + "\n" + secondHalf)
	if strings.Contains(resumedOut, "load:") {
		t.Fatalf("load failed:\n%s", resumedOut)
	}

	if n := len(inventories(fullOut)); n != 2 {
		t.Fatalf("the uninterrupted run listed its inventory %d times, want 2", n)
	}
	if got, want := inventories(resumedOut), inventories(fullOut); !reflect.DeepEqual(got, want) {
		t.Fatalf("inv after load printed %q, uninterrupted %q", got, want)
	}
	if got, want := resumed.s.Messages(), full.s.Messages(); !reflect.DeepEqual(got, want) {
		t.Fatalf("transcripts diverge:\n got %q\nwant %q", got, want)
	}
	if resumed.s.Ticks() != full.s.Ticks() {
		t.Fatalf("ticks = %d, want %d", resumed.s.Ticks(), full.s.Ticks())
	}
	var gotEnc, wantEnc runtime.StateEncoder
	if !bytes.Equal(gotEnc.Encode(resumed.s.State()), wantEnc.Encode(full.s.State())) {
		t.Fatalf("states diverge:\n got %+v\nwant %+v", resumed.s.State(), full.s.State())
	}
	gotFrame, err := resumed.s.Frame()
	if err != nil {
		t.Fatal(err)
	}
	wantFrame, err := full.s.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFrame.Pix, wantFrame.Pix) {
		t.Fatal("the loaded game presents a different frame")
	}
	if !strings.Contains(resumedOut, "GAME OVER") {
		t.Fatalf("the loaded game did not finish:\n%s", resumedOut)
	}
}
