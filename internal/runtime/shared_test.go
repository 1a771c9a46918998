package runtime

import (
	"reflect"
	"testing"

	"repro/internal/gamepack"
)

// TestSessionsShareOpenedPackage: a session over an opened package is state
// + cursor + decoder. Everything derived from the package's bytes — the
// parsed container, the compiled scripts, the decoded frames — is the
// package's, built once and the same objects for every session, so opening
// one more session parses nothing, checksums nothing, compiles nothing and
// costs a few dozen allocations (523 when each session derived its own).
func TestSessionsShareOpenedPackage(t *testing.T) {
	pkg, err := gamepack.Open(snapPackage(t))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSessionFromPackage(pkg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSessionFromPackage(pkg, Options{})
	if err != nil {
		t.Fatal(err)
	}

	events, err := pkg.Events()
	if err != nil {
		t.Fatal(err)
	}
	same := func(x, y any) bool { return reflect.ValueOf(x).Pointer() == reflect.ValueOf(y).Pointer() }
	if !same(a.events, events) || !same(b.events, events) {
		t.Error("sessions hold their own compiled scripts, not the package's")
	}
	r1, err1 := pkg.Reader()
	r2, err2 := pkg.Reader()
	if err1 != nil || err2 != nil || r1 != r2 {
		t.Errorf("the package parsed its container twice: %p %v, %p %v", r1, err1, r2, err2)
	}

	// One decoded-frame cache: what a presents, b copies.
	cache := pkg.Frames()
	if err := a.Watch(); err != nil {
		t.Fatal(err)
	}
	hits, misses, _, _, _ := cache.Stats()
	if err := b.Watch(); err != nil {
		t.Fatal(err)
	}
	if h, m, _, _, _ := cache.Stats(); h != hits+1 || m != misses {
		t.Errorf("b decoded the frame a had just presented: hits %d → %d, misses %d → %d", hits, h, misses, m)
	}
	if !a.watchFrame.Equal(&b.watchFrame) {
		t.Error("the copy differs from the decode")
	}

	allocs := testing.AllocsPerRun(200, func() {
		if _, err := NewSessionFromPackage(pkg, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewSessionFromPackage: %.0f allocs", allocs)
	if allocs > 40 {
		t.Errorf("opening a session on an opened package costs %.0f allocations, want ≤ 40", allocs)
	}
}
