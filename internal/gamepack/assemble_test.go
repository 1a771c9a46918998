package gamepack_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sort"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/content"
	"repro/internal/gamepack"
	"repro/internal/media/studio"
)

// TestAssembleIsExact: Manifest.Assemble writes framing, chunk bytes and
// CRCs into one buffer sized from the manifest, and that buffer is the
// package byte for byte — for every demo ladder (whose bytes
// TestLadderPackagesGolden pins) and for the same package re-framed by
// hand without its manifest section, the legacy shape — with Layout's
// total as its length and its capacity.
func TestAssembleIsExact(t *testing.T) {
	for name, course := range map[string]*content.Course{
		"classroom": content.Classroom(),
		"museum":    content.Museum(),
		"street":    content.StreetDemo(),
	} {
		blob, err := course.BuildLadderPackage(studio.Options{QStep: 8}, nil)
		if err != nil {
			t.Fatal(err)
		}
		assembleMatches(t, name, blob)
		legacy := withoutManifest(t, blob)
		if _, err := gamepack.ExtractManifest(legacy); !errors.Is(err, gamepack.ErrNoManifest) {
			t.Fatalf("%s: the re-framed package still carries a manifest (%v)", name, err)
		}
		assembleMatches(t, name+" legacy", legacy)
	}
}

// assembleMatches deposits blob's chunks and reassembles it from them.
func assembleMatches(t *testing.T, name string, blob []byte) {
	t.Helper()
	store := blobstore.NewCache(1 << 30)
	man, err := gamepack.DepositChunks(blob, store)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := man.Assemble(store.Get)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("%s: assembled %d B differ from the %d B package", name, len(got), len(blob))
	}
	if _, total := man.Layout(); len(got) != total || cap(got) != total {
		t.Fatalf("%s: assembled len %d cap %d, Layout says %d", name, len(got), cap(got), total)
	}
}

// withoutManifest re-frames a package's sections, in their order and
// with their CRCs, minus the manifest section — a package as written
// before the chunk store existed. It is its own framing writer, so the
// check does not lean on the one it tests.
func withoutManifest(t *testing.T, blob []byte) []byte {
	t.Helper()
	secs, err := gamepack.Sections(blob)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(secs))
	for name := range secs {
		if name != gamepack.SectionManifest {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool { return secs[names[i]][0] < secs[names[j]][0] })
	out := append([]byte(nil), blob[:5]...) // magic and version
	out = binary.AppendUvarint(out, uint64(len(names)))
	for _, name := range names {
		off, size := secs[name][0], secs[name][1]
		out = binary.AppendUvarint(out, uint64(len(name)))
		out = append(out, name...)
		out = binary.AppendUvarint(out, uint64(size))
		out = append(out, blob[off-4:off+size]...) // CRC and payload
	}
	return out
}
