package playsvc

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/gamepack"
	"repro/internal/media/raster"
	"repro/internal/runtime"
)

// walkStep is one move of a presentation walk: switch to a scenario, or
// watch on for some ticks (past the segment's end: the cursor loops).
type walkStep struct {
	scenario string
	ticks    int
}

// uncachedFrame is the reference for one step of a walk: a session on a
// package opened for it alone replays the walk (which only moves the
// cursor) and presents once — its package's frame cache is empty, so that
// one frame comes off the decoder: keyframe, roll-forward, colour pass.
func uncachedFrame(t *testing.T, blob []byte, walk []walkStep) *raster.Frame {
	t.Helper()
	s, err := runtime.NewSession(blob, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range walk {
		if st.scenario != "" {
			err = s.GotoScenario(st.scenario)
		} else {
			err = s.Advance(st.ticks)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	f, err := s.Frame()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMirrorFramesMatchHosted: a mirror client presents through the frame
// cache of the package it was dialled with, shared with every other mirror
// in its process, where it used to decode each frame itself. Over a seeded
// walk with scenario switches and segment loops, what the mirror shows must
// be what the hosted session shows a thin client and what an uncached local
// decode produces — cold, while the cache fills, and warm, when a second
// mirror on the same package walks the same way and must decode nothing.
func TestMirrorFramesMatchHosted(t *testing.T) {
	ts, _ := liveService(t, Options{TTL: -1})
	blob := classroomBlob(t)
	pkg, err := gamepack.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	open := func(mirror bool) *Client {
		o := ClientOptions{BaseURL: ts.URL, Course: "classroom", Project: pkg.Project}
		if mirror {
			o.LocalMirror, o.Pkg = true, pkg
		}
		c, err := Dial(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	step := func(c *Client, st walkStep) {
		t.Helper()
		var err error
		if st.scenario != "" {
			err = c.GotoScenario(st.scenario)
		} else {
			err = c.Advance(st.ticks)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(20))
	var walk []walkStep
	for len(walk) < 40 {
		switch r := rng.Intn(10); {
		case r < 2:
			sc := pkg.Project.Scenarios[rng.Intn(len(pkg.Project.Scenarios))]
			walk = append(walk, walkStep{scenario: sc.ID})
		case r < 4: // far enough to wrap any segment of the course
			walk = append(walk, walkStep{ticks: 20 + rng.Intn(40)})
		default:
			walk = append(walk, walkStep{ticks: 1 + rng.Intn(3)})
		}
	}

	// Cold: the first mirror and a thin client, step for step.
	mirror, thin := open(true), open(false)
	shown := make([]*raster.Frame, len(walk))
	for i, st := range walk {
		step(mirror, st)
		step(thin, st)
		got, err := mirror.Frame()
		if err != nil {
			t.Fatal(err)
		}
		hosted, err := thin.Frame()
		if err != nil {
			t.Fatal(err)
		}
		want := uncachedFrame(t, blob, walk[:i+1])
		if !got.Equal(want) {
			t.Fatalf("step %d (%+v): the mirror's frame differs from the uncached decode", i, st)
		}
		if !hosted.Equal(want) {
			t.Fatalf("step %d (%+v): the hosted session's frame differs from the uncached decode", i, st)
		}
		shown[i] = got.Clone()
	}
	if mirror.Ticks() != thin.Ticks() {
		t.Fatalf("mirror at tick %d, hosted session at %d", mirror.Ticks(), thin.Ticks())
	}

	// Warm: a second mirror on the same package presents the same frames
	// and decodes none of them.
	_, misses, _, _, _ := pkg.Frames().Stats()
	second := open(true)
	for i, st := range walk {
		step(second, st)
		got, err := second.Frame()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(shown[i]) {
			t.Fatalf("step %d (%+v): the second mirror's frame differs from the first's", i, st)
		}
	}
	if _, after, _, _, _ := pkg.Frames().Stats(); after != misses {
		t.Errorf("the second mirror decoded %d frames the first had already presented", after-misses)
	}
	for _, c := range []*Client{mirror, thin, second} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// within reports whether p points into buf.
func within(p *byte, buf []byte) bool {
	at, lo := uintptr(unsafe.Pointer(p)), uintptr(unsafe.Pointer(&buf[0]))
	return at >= lo && at < lo+uintptr(len(buf))
}

// TestPublishSharesNothingOfCallersBlob: a course's package is built over
// the interned video buffer before anything is derived from it, so what
// every session then shares — the parsed container above all, whose packets
// alias the buffer it was parsed from — points into the interned copy and
// never into the blob the caller handed AddCourse (which would pin it for
// as long as the course is published).
func TestPublishSharesNothingOfCallersBlob(t *testing.T) {
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	blob := append([]byte(nil), classroomBlob(t)...)
	if err := m.AddCourse("classroom", blob); err != nil {
		t.Fatal(err)
	}
	if err := m.AddCourse("again", blob); err != nil {
		t.Fatal(err)
	}
	a, b := m.courses["classroom"].pkg, m.courses["again"].pkg
	if &a.Video[0] != &b.Video[0] {
		t.Error("two courses over the same footage hold two video buffers")
	}
	for name, pkg := range map[string]*gamepack.Package{"classroom": a, "again": b} {
		if within(&pkg.Video[0], blob) {
			t.Errorf("%s: the course's video is the caller's blob", name)
		}
		r, err := pkg.Reader()
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, r.Meta().FrameCount - 1} {
			data, _, err := r.PacketAt(i)
			if err != nil {
				t.Fatal(err)
			}
			if within(&data[0], blob) || !within(&data[0], pkg.Video) {
				t.Errorf("%s: packet %d of the shared container does not alias the interned buffer", name, i)
			}
		}
	}
}
