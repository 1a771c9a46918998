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
	"repro/internal/netstream"
)

// TestAssembleIsExact: Manifest.Assemble writes framing, chunk bytes and
// CRCs into one buffer sized from the manifest, and that buffer is the
// package byte for byte — for every demo ladder (whose bytes
// TestLadderPackagesGolden pins) — with Layout's total as its length and
// its capacity. The same package re-framed by hand without its manifest
// section is refused (TestManifestlessPackageRefused).
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
		if _, err := gamepack.DepositChunks(legacy, blobstore.NewCache(1<<30)); !errors.Is(err, gamepack.ErrNoManifest) {
			t.Fatalf("%s: DepositChunks(manifest-less) = %v, want ErrNoManifest", name, err)
		}
	}
}

// TestManifestlessPackageRefused: a package has one shape, carrying its
// manifest. The same package re-framed without its manifest section is
// refused at both publish edges with ErrNoManifest, and leaves nothing
// behind: the package server's store keeps its chunk count and its
// listing does not name the package, and a deposit stores nothing.
func TestManifestlessPackageRefused(t *testing.T) {
	blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 8})
	if err != nil {
		t.Fatal(err)
	}
	legacy := withoutManifest(t, blob)
	if _, err := gamepack.ExtractManifest(legacy); !errors.Is(err, gamepack.ErrNoManifest) {
		t.Fatalf("the re-framed package still carries a manifest (%v)", err)
	}
	if _, err := gamepack.Open(legacy); err != nil {
		t.Fatalf("the re-framed package does not open, so the refusal would prove nothing: %v", err)
	}

	srv := netstream.NewServer()
	if err := srv.AddPackage("original", blob); err != nil {
		t.Fatal(err)
	}
	chunks := srv.StoreStats().Chunks
	if err := srv.AddPackage("legacy", legacy); !errors.Is(err, gamepack.ErrNoManifest) {
		t.Fatalf("AddPackage(manifest-less) = %v, want ErrNoManifest", err)
	}
	if got := srv.StoreStats().Chunks; got != chunks {
		t.Errorf("a refused publish changed the store from %d to %d chunks", chunks, got)
	}
	if names := srv.Names(); len(names) != 1 || names[0] != "original" {
		t.Errorf("Names() = %v after a refused publish, want [original]", names)
	}

	store := blobstore.NewCache(1 << 30)
	if _, err := gamepack.DepositChunks(legacy, store); !errors.Is(err, gamepack.ErrNoManifest) {
		t.Fatalf("DepositChunks(manifest-less) = %v, want ErrNoManifest", err)
	}
	if got := store.Stats().Chunks; got != 0 {
		t.Errorf("a refused deposit stored %d chunks", got)
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
