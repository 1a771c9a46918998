package netstream

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/gamepack"
)

// TestETagIsManifestDigest: a package's validator on /manifest/ is the
// first 16 bytes of the SHA-256 of its canonical manifest encoding, and
// /manifest/ serves exactly that encoding. /pkg/ is not a route.
func TestETagIsManifestDigest(t *testing.T) {
	ts, blob := testServer(t)
	man, err := gamepack.ExtractManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	enc := man.Encode()
	sum := sha256.Sum256(enc)
	want := fmt.Sprintf(`"%x"`, sum[:16])
	resp, err := http.Get(ts.URL + "/manifest/classroom")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("ETag"); got != want {
		t.Errorf("/manifest/ ETag = %s, want the manifest digest %s", got, want)
	}
	if string(body) != string(enc) {
		t.Errorf("/manifest/ serves %d bytes that are not the canonical encoding (%d bytes)", len(body), len(enc))
	}
	resp, err = http.Get(ts.URL + "/pkg/classroom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /pkg/classroom: %s, want 404", resp.Status)
	}
}

// TestChunkRepliesAreSized: every /chunk/ reply declares its length, so it
// goes out in one write without chunked transfer encoding.
func TestChunkRepliesAreSized(t *testing.T) {
	ts, srv, _ := ladderTestServer(t)
	ent := srv.pkg("course")
	man, err := gamepack.ParseManifest(ent.manifest)
	if err != nil {
		t.Fatal(err)
	}
	set := man.ChunkSet()
	if len(set) < 2 {
		t.Fatalf("ladder package has %d chunks", len(set))
	}
	for h, size := range set {
		resp, err := http.Get(ts.URL + "/chunk/" + h.String())
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(size) || n != int64(size) || len(resp.TransferEncoding) != 0 {
			t.Errorf("chunk %s of %d B: ContentLength %d, body %d B, TransferEncoding %v",
				h, size, resp.ContentLength, n, resp.TransferEncoding)
		}
	}
}

// TestDeltaRejectsValidatorMismatch: a manifest the server's validator does
// not name is an integrity rejection. Neither fill path asks for a chunk
// or for anything else.
func TestDeltaRejectsValidatorMismatch(t *testing.T) {
	inner, _ := testServer(t)
	for name, tamper := range map[string]func(h http.Header, body []byte){
		"validator rewritten": func(h http.Header, _ []byte) { h.Set("ETag", `"00000000000000000000000000000000"`) },
		"manifest altered":    func(_ http.Header, body []byte) { body[len(body)-1] ^= 0x01 },
	} {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			hits := map[string]int{}
			proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				hits[r.URL.Path[:strings.IndexByte(r.URL.Path[1:], '/')+2]]++
				mu.Unlock()
				if !strings.HasPrefix(r.URL.Path, "/manifest/") {
					inner.Config.Handler.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				inner.Config.Handler.ServeHTTP(rec, r)
				body := rec.Body.Bytes()
				tamper(rec.Header(), body)
				for k, v := range rec.Header() {
					w.Header()[k] = v
				}
				w.WriteHeader(rec.Code)
				w.Write(body)
			}))
			defer proxy.Close()
			url := proxy.URL + "/pkg/classroom"
			c := &Client{}
			cache := NewPackageCache()
			if _, _, err := c.DownloadDelta(url, cache); !errors.Is(err, errValidatorMismatch) {
				t.Fatalf("DownloadDelta = %v, want the validator mismatch", err)
			}
			if _, _, err := c.ProgressiveOpenABR(url, cache, ABRConfig{}); !errors.Is(err, errValidatorMismatch) {
				t.Fatalf("ProgressiveOpenABR = %v, want the validator mismatch", err)
			}
			if hits["/manifest/"] != 2 || hits["/chunk/"] != 0 || hits["/pkg/"] != 0 {
				t.Errorf("requests %v; want the two manifests alone", hits)
			}
			if cache.Len() != 0 || cache.Chunks().Stats().Chunks != 0 {
				t.Error("a rejected fill left bytes in the cache")
			}
		})
	}
}

// TestWholeFallbackIsChecked: the tamperings a whole package was once
// held to, applied where a package's bytes now travel. A proxy that flips
// one byte of a video chunk, of the chunk holding the package's last byte
// or of the manifest, or that names the manifest by another digest, gets
// an error; nothing is cached, and the client asks for nothing but the
// manifest and chunks — there is no whole package to fall back to. A
// flipped chunk byte needs no reseal to pass the framing check: the
// client's reassembly computes each section's CRC over the bytes it holds,
// so only the chunk's address catches it.
func TestWholeFallbackIsChecked(t *testing.T) {
	inner, blob := testServer(t)
	man, err := gamepack.ExtractManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	video := man.Section(gamepack.SectionVideo)
	if video == nil || len(video.Chunks) == 0 {
		t.Fatal("fixture: no video chunks")
	}
	victim := "/chunk/" + video.Chunks[0].Hash.String()
	// The package's last byte is the last byte of its last section: a
	// chunk, or the manifest's own encoding.
	lastPath := "/manifest/classroom"
	if last := man.Sections[len(man.Sections)-1]; len(last.Chunks) > 0 {
		lastPath = "/chunk/" + last.Chunks[len(last.Chunks)-1].Hash.String()
	}
	flip := func(path string, at func(n int) int) func(string, http.Header, []byte) {
		return func(p string, _ http.Header, body []byte) {
			if p == path {
				body[at(len(body))] ^= 0x01
			}
		}
	}
	middle := func(n int) int { return n / 2 }
	for name, tamper := range map[string]func(path string, h http.Header, body []byte){
		"a video chunk byte flipped":                       flip(victim, middle),
		"a video chunk byte flipped, its section resealed": flip(victim, middle),
		"the last byte flipped":                            flip(lastPath, func(n int) int { return n - 1 }),
		"a manifest section byte flipped":                  flip("/manifest/classroom", middle),
		"another digest named": func(p string, h http.Header, _ []byte) {
			if p == "/manifest/classroom" {
				h.Set("ETag", `"00000000000000000000000000000000"`)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			if strings.HasSuffix(name, "resealed") {
				// Reassembled around the flipped chunk, the package's
				// framing holds: its CRCs are no defence on this path.
				tampered, err := man.Assemble(func(h blobstore.Hash) ([]byte, error) {
					rec := httptest.NewRecorder()
					inner.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/chunk/"+h.String(), nil))
					tamper("/chunk/"+h.String(), rec.Header(), rec.Body.Bytes())
					return rec.Body.Bytes(), nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(tampered, blob) {
					t.Fatal("fixture: the flip changed no package byte")
				}
				if err := man.CheckFraming(tampered); err != nil {
					t.Fatalf("fixture: the reassembled package fails its framing check: %v", err)
				}
			}
			var mu sync.Mutex
			hits := map[string]int{}
			proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				hits[r.URL.Path]++
				mu.Unlock()
				rec := httptest.NewRecorder()
				inner.Config.Handler.ServeHTTP(rec, r)
				body := rec.Body.Bytes()
				if rec.Code == http.StatusOK {
					tamper(r.URL.Path, rec.Header(), body)
				}
				for k, v := range rec.Header() {
					w.Header()[k] = v
				}
				w.WriteHeader(rec.Code)
				w.Write(body)
			}))
			defer proxy.Close()
			c := &Client{}
			cache := NewPackageCache()
			got, _, err := c.DownloadDelta(proxy.URL+"/pkg/classroom", cache)
			if err == nil {
				t.Fatalf("DownloadDelta synced past a tampered reply: a %d-byte package, no error", len(got))
			}
			if cache.Len() != 0 {
				t.Error("a rejected package was cached")
			}
			for path, n := range hits {
				if path != "/manifest/classroom" && !strings.HasPrefix(path, "/chunk/") {
					t.Errorf("%s requested %d times; a sync asks only for the manifest and chunks", path, n)
				}
			}
		})
	}
}

// tkgpSection is one section of a hand-framed package: its payload, and
// the framing faults to write it with.
type tkgpSection struct {
	name    string
	data    []byte
	padSize bool // payload length as a two-byte varint where one would do
	badCRC  bool
}

// frameTKGP writes sections in the TKGP layout (public; see gamepack).
func frameTKGP(secs []tkgpSection) []byte {
	out := append([]byte("TKGP"), 1)
	out = binary.AppendUvarint(out, uint64(len(secs)))
	for _, s := range secs {
		out = binary.AppendUvarint(out, uint64(len(s.name)))
		out = append(out, s.name...)
		if s.padSize {
			out = append(out, byte(len(s.data))|0x80, byte(len(s.data)>>7))
		} else {
			out = binary.AppendUvarint(out, uint64(len(s.data)))
		}
		crc := crc32.ChecksumIEEE(s.data)
		if s.badCRC {
			crc ^= 1
		}
		out = binary.BigEndian.AppendUint32(out, crc)
		out = append(out, s.data...)
	}
	return out
}

// TestAddPackageRefusesNonCanonical: a blob that gamepack.Open accepts but
// that is not byte for byte its manifest's assembly is refused at publish,
// and leaves nothing in the store. Served, it would fail every delta
// client's validator.
func TestAddPackageRefusesNonCanonical(t *testing.T) {
	_, blob := testServer(t)
	locs, err := gamepack.Sections(blob)
	if err != nil {
		t.Fatal(err)
	}
	var secs []tkgpSection
	for name, loc := range locs {
		secs = append(secs, tkgpSection{name: name, data: blob[loc[0] : loc[0]+loc[1]]})
	}
	sort.Slice(secs, func(i, j int) bool { return locs[secs[i].name][0] < locs[secs[j].name][0] })
	if secs[0].name != gamepack.SectionMeta || len(secs[0].data) >= 0x80 {
		t.Fatalf("fixture's first section is %q of %d B, want a short meta", secs[0].name, len(secs[0].data))
	}
	if string(frameTKGP(secs)) != string(blob) {
		t.Fatal("hand framing does not reproduce the package")
	}
	edit := func(f func(secs []tkgpSection) []tkgpSection) []byte {
		return frameTKGP(f(append([]tkgpSection(nil), secs...)))
	}
	cases := map[string][]byte{
		"meta length padded": edit(func(s []tkgpSection) []tkgpSection { s[0].padSize = true; return s }),
		"meta CRC wrong":     edit(func(s []tkgpSection) []tkgpSection { s[0].badCRC = true; return s }),
		"duplicate section": edit(func(s []tkgpSection) []tkgpSection {
			return append([]tkgpSection{{name: s[0].name, data: []byte(`{}`)}}, s...)
		}),
		"manifest varint padded": edit(func(s []tkgpSection) []tkgpSection {
			for i := range s {
				if s[i].name == gamepack.SectionManifest {
					// The section count, one byte at offset 5, as two.
					m := s[i].data
					s[i].data = append(append(append([]byte(nil), m[:5]...), m[5]|0x80, 0), m[6:]...)
				}
			}
			return s
		}),
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := gamepack.Open(bad); err != nil {
				t.Fatalf("gamepack.Open refuses the case itself: %v", err)
			}
			if _, err := gamepack.ExtractManifest(bad); err != nil {
				t.Fatalf("the case's manifest does not parse: %v", err)
			}
			srv := NewServer()
			if err := srv.AddPackage("course", bad); !errors.Is(err, gamepack.ErrBadPackage) {
				t.Fatalf("AddPackage = %v, want a refusal wrapping ErrBadPackage", err)
			}
			if st := srv.StoreStats(); st.Chunks != 0 || len(srv.Names()) != 0 {
				t.Errorf("a refused publish left %d chunks and packages %v", st.Chunks, srv.Names())
			}
		})
	}
}
