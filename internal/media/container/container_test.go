package container

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/media/synth"
	"repro/internal/media/vcodec"
)

// buildBlob encodes a short film and returns the blob plus the film for
// reference.
func buildBlob(t testing.TB, gop int, chapters []Chapter) ([]byte, *synth.Film) {
	t.Helper()
	film := synth.Generate(synth.Spec{
		W: 64, H: 48, FPS: 10,
		Shots: 3, MinShotFrames: 8, MaxShotFrames: 10,
		Seed: 5,
	})
	enc, err := vcodec.NewEncoder(vcodec.Config{
		Width: 64, Height: 48, QStep: 6, GOP: gop,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux, err := NewMuxer(Meta{Width: 64, Height: 48, FPS: 10, GOP: gop})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < film.FrameCount(); i++ {
		pkt, err := enc.Encode(film.Render(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := mux.AddPacket(pkt); err != nil {
			t.Fatal(err)
		}
	}
	for _, ch := range chapters {
		if err := mux.AddChapter(ch); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := mux.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return blob, film
}

func TestMuxOpenRoundTrip(t *testing.T) {
	blob, film := buildBlob(t, 5, []Chapter{
		{Name: "intro", Start: 0, End: 8},
		{Name: "middle", Start: 8, End: 16},
	})
	r, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Meta()
	if m.Width != 64 || m.Height != 48 || m.FPS != 10 || m.GOP != 5 {
		t.Errorf("meta = %+v", m)
	}
	if m.FrameCount != film.FrameCount() {
		t.Errorf("frame count = %d, want %d", m.FrameCount, film.FrameCount())
	}
	chs := r.Chapters()
	if len(chs) != 2 || chs[0].Name != "intro" || chs[1].Name != "middle" {
		t.Errorf("chapters = %+v", chs)
	}
	if _, ok := r.ChapterByName("middle"); !ok {
		t.Error("ChapterByName failed")
	}
	if _, ok := r.ChapterByName("nope"); ok {
		t.Error("ChapterByName found a ghost")
	}
}

func TestPacketsDecodable(t *testing.T) {
	blob, film := buildBlob(t, 5, nil)
	r, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	dec := vcodec.NewDecoder()
	for i := 0; i < r.Meta().FrameCount; i++ {
		data, ft, err := r.PacketAt(i)
		if err != nil {
			t.Fatal(err)
		}
		wantI := i%5 == 0
		if (ft == vcodec.IFrame) != wantI {
			t.Errorf("frame %d type %v, want I=%v", i, ft, wantI)
		}
		if _, err := dec.Decode(data); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	_ = film
}

func TestKeyframeAtOrBefore(t *testing.T) {
	blob, _ := buildBlob(t, 7, nil)
	r, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Meta().FrameCount; i++ {
		k, err := r.KeyframeAtOrBefore(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := i / 7 * 7; k != want {
			t.Fatalf("keyframe before %d = %d, want %d", i, k, want)
		}
	}
	if _, err := r.KeyframeAtOrBefore(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := r.KeyframeAtOrBefore(r.Meta().FrameCount); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestPacketAtOutOfRange(t *testing.T) {
	blob, _ := buildBlob(t, 5, nil)
	r, _ := Open(blob)
	if _, _, err := r.PacketAt(-1); err == nil {
		t.Error("PacketAt(-1) accepted")
	}
	if _, _, err := r.PacketAt(r.Meta().FrameCount); err == nil {
		t.Error("PacketAt(count) accepted")
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	blob, _ := buildBlob(t, 5, []Chapter{{Name: "x", Start: 0, End: 4}})
	// Truncations at every section boundary-ish offset.
	for _, n := range []int{0, 3, 4, 5, 10, len(blob) / 2, len(blob) - 1} {
		if _, err := Open(blob[:n]); err == nil {
			t.Errorf("truncated blob (%d bytes) accepted", n)
		}
	}
	// Bad magic.
	bad := append([]byte("XXXX"), blob[4:]...)
	if _, err := Open(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// Flip a bit in the data section: checksum must catch it.
	flip := append([]byte(nil), blob...)
	flip[len(flip)-1] ^= 0x40
	if _, err := Open(flip); err == nil {
		t.Error("data corruption not caught by checksum")
	}
	// Trailing junk.
	junk := append(append([]byte(nil), blob...), 0xAB)
	if _, err := Open(junk); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestMuxerValidation(t *testing.T) {
	if _, err := NewMuxer(Meta{Width: 0, Height: 2, FPS: 1, GOP: 1}); err == nil {
		t.Error("bad meta accepted")
	}
	mux, _ := NewMuxer(Meta{Width: 8, Height: 8, FPS: 10, GOP: 2})
	if _, err := mux.Finalize(); err == nil {
		t.Error("empty container finalized")
	}
	// Wrong first index.
	if err := mux.AddPacket(vcodec.Packet{Type: vcodec.IFrame, Index: 3, Data: []byte{1}}); err == nil {
		t.Error("out-of-order packet accepted")
	}
	// P-frame first.
	if err := mux.AddPacket(vcodec.Packet{Type: vcodec.PFrame, Index: 0, Data: []byte{1}}); err == nil {
		t.Error("leading P-frame accepted")
	}
	// Empty packet.
	if err := mux.AddPacket(vcodec.Packet{Type: vcodec.IFrame, Index: 0}); err == nil {
		t.Error("empty packet accepted")
	}
	if err := mux.AddPacket(vcodec.Packet{Type: vcodec.IFrame, Index: 0, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	// Chapter validation.
	if err := mux.AddChapter(Chapter{Name: "", Start: 0, End: 1}); err == nil {
		t.Error("unnamed chapter accepted")
	}
	if err := mux.AddChapter(Chapter{Name: "a", Start: 2, End: 2}); err == nil {
		t.Error("empty chapter accepted")
	}
	if err := mux.AddChapter(Chapter{Name: "a", Start: 0, End: 1}); err != nil {
		t.Fatal(err)
	}
	if err := mux.AddChapter(Chapter{Name: "a", Start: 0, End: 1}); err == nil {
		t.Error("duplicate chapter accepted")
	}
	// Chapter beyond frame count fails at Finalize.
	if err := mux.AddChapter(Chapter{Name: "b", Start: 0, End: 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := mux.Finalize(); err == nil {
		t.Error("chapter beyond frame count accepted at Finalize")
	}
}

func TestChaptersSortedByStart(t *testing.T) {
	blob, _ := buildBlob(t, 5, []Chapter{
		{Name: "late", Start: 10, End: 14},
		{Name: "early", Start: 0, End: 10},
	})
	r, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	chs := r.Chapters()
	if chs[0].Name != "early" || chs[1].Name != "late" {
		t.Errorf("chapters not sorted: %+v", chs)
	}
}

func TestChaptersCopyIsolated(t *testing.T) {
	blob, _ := buildBlob(t, 5, []Chapter{{Name: "c", Start: 0, End: 4}})
	r, _ := Open(blob)
	chs := r.Chapters()
	chs[0].Name = "mutated"
	if got := r.Chapters()[0].Name; got != "c" {
		t.Errorf("reader state mutated through returned slice: %q", got)
	}
}

func TestDataSize(t *testing.T) {
	blob, _ := buildBlob(t, 5, nil)
	r, _ := Open(blob)
	if r.DataSize() <= 0 || r.DataSize() >= len(blob) {
		t.Errorf("DataSize = %d, blob = %d", r.DataSize(), len(blob))
	}
}

// finalizeFlat is Finalize as it was written when the data section was one
// slice: the head, then every packet concatenated. The blocked muxer must
// make the same bytes.
func finalizeFlat(meta Meta, chapters []Chapter, pkts []vcodec.Packet) []byte {
	var data []byte
	for _, p := range pkts {
		data = append(data, p.Data...)
	}
	buf := []byte(magic)
	buf = append(buf, version)
	for _, v := range []int{meta.Width, meta.Height, meta.FPS, len(pkts), meta.GOP, len(chapters)} {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	for _, ch := range chapters { // already in start order
		buf = binary.AppendUvarint(buf, uint64(ch.Start))
		buf = binary.AppendUvarint(buf, uint64(ch.End))
		buf = binary.AppendUvarint(buf, uint64(len(ch.Name)))
		buf = append(buf, ch.Name...)
	}
	for _, p := range pkts {
		buf = append(buf, byte(p.Type))
		buf = binary.AppendUvarint(buf, uint64(len(p.Data)))
	}
	buf = binary.AppendUvarint(buf, uint64(len(data)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(data))
	return append(buf, data...)
}

// blockBytes is the capacity of one of the muxer's data blocks.
const blockBytes = len(dataBlock{}.buf)

// muxCases are packet-size sequences for the blocked data section: packets
// that end exactly on a block's end, that straddle one block's end, that are
// larger than a block (one spans three), and a thousand tiny ones.
var muxCases = map[string][]int{
	"block-exact": {blockBytes, blockBytes, 1},
	"straddle":    {blockBytes - 10, 20, blockBytes - 20, 31},
	"oversize":    {7, 2*blockBytes + 5, 3*blockBytes + 1, 9},
	"tiny":        cycleSizes(1000, 1, 2, 3),
}

// cycleSizes returns n packet sizes, sizes over and over.
func cycleSizes(n int, sizes ...int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = sizes[i%len(sizes)]
	}
	return out
}

func muxPackets(sizes []int) []vcodec.Packet {
	rng := rand.New(rand.NewSource(int64(len(sizes))))
	pkts := make([]vcodec.Packet, len(sizes))
	for i, n := range sizes {
		pkts[i] = vcodec.Packet{Type: vcodec.PFrame, Index: i, Data: make([]byte, n)}
		if i%5 == 0 {
			pkts[i].Type = vcodec.IFrame
		}
		rng.Read(pkts[i].Data)
	}
	return pkts
}

// TestFinalizeMatchesFlatConcatenation holds the blocked muxer to the
// one-slice layout, byte for byte, with chapters added out of order, and
// checks the blob is allocated at its exact size and opens.
func TestFinalizeMatchesFlatConcatenation(t *testing.T) {
	meta := Meta{Width: 16, Height: 16, FPS: 10, GOP: 5}
	for name, sizes := range muxCases {
		pkts := muxPackets(sizes)
		chapters := []Chapter{{"late", 1, len(pkts)}, {"early", 0, 1}}
		for _, hint := range []int{0, len(pkts)} { // grown index, sized index
			m := meta
			m.FrameCount = hint
			mux, err := NewMuxer(m)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkts {
				if err := mux.AddPacket(p); err != nil {
					t.Fatal(err)
				}
			}
			for _, ch := range chapters {
				if err := mux.AddChapter(ch); err != nil {
					t.Fatal(err)
				}
			}
			blob, err := mux.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			want := finalizeFlat(meta, []Chapter{chapters[1], chapters[0]}, pkts)
			if !bytes.Equal(blob, want) {
				t.Fatalf("%s (FrameCount %d): Finalize made %d bytes, the flat layout %d, and they differ", name, hint, len(blob), len(want))
			}
			if cap(blob) != len(blob) {
				t.Errorf("%s: blob of %d bytes has capacity %d", name, len(blob), cap(blob))
			}
			r, err := Open(blob)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, p := range pkts {
				if got, _, _ := r.PacketAt(i); !bytes.Equal(got, p.Data) {
					t.Fatalf("%s: packet %d reads back different", name, i)
				}
			}
		}
	}
}

// TestAddPacketAllocatesPerBlock pins AddPacket at one allocation per data
// block it fills, and none per packet, when FrameCount sized the index.
func TestAddPacketAllocatesPerBlock(t *testing.T) {
	meta := Meta{Width: 16, Height: 16, FPS: 10, GOP: 5}
	for name, sizes := range muxCases {
		pkts := muxPackets(sizes)
		meta.FrameCount = len(pkts)
		total := 0
		for _, n := range sizes {
			total += n
		}
		blocks := (total + blockBytes - 1) / blockBytes
		muxer := func() *Muxer {
			m, err := NewMuxer(meta)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		base := testing.AllocsPerRun(5, func() { muxer() })
		got := testing.AllocsPerRun(5, func() {
			m := muxer()
			for _, p := range pkts {
				if err := m.AddPacket(p); err != nil {
					t.Fatal(err)
				}
			}
		}) - base
		if got != float64(blocks) {
			t.Errorf("%s: %d packets, %d bytes: AddPacket made %.0f allocations, want one per block, %d", name, len(pkts), total, got, blocks)
		}
	}
}
