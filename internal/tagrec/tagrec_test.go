package tagrec

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

// sample builds a container by hand, so the writers are checked against the
// format's definition rather than against the readers.
func sample() []byte {
	b := []byte("TEST\x02")
	b = append(b, 1, 3, 'a', 'b', 'c') // tag 1: three bytes
	b = append(b, 2, 2, 0xac, 0x02)    // tag 2: uvarint 300
	b = append(b, 7, 0)                // tag 7: empty
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func TestWritersProduceTheFormat(t *testing.T) {
	b := Begin([]byte("prefix"), "TEST", 2)
	b = Append(b, 1, "abc")
	b = AppendUint(b, 2, 300)
	b, mark := BeginRecord(b, 7)
	b = EndRecord(b, mark)
	b = Finish(b, len("prefix"))
	if want := append([]byte("prefix"), sample()...); !bytes.Equal(b, want) {
		t.Fatalf("wrote %q\n want %q", b, want)
	}
}

// TestEndRecordEveryLengthWidth: a record closed in place is the record
// Append would have written, on both sides of every varint width a payload
// can reach, with bytes before and after it untouched.
func TestEndRecordEveryLengthWidth(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 129, 16383, 16384, 16385, 1 << 21} {
		payload := bytes.Repeat([]byte{0xa5, 0x5a, 0x01}, n/3+1)[:n]
		b, mark := BeginRecord([]byte("before"), 300)
		b = EndRecord(append(b, payload...), mark)
		b = append(b, "after"...)
		want := append(Append([]byte("before"), 300, payload), "after"...)
		if !bytes.Equal(b, want) {
			t.Fatalf("a %d-byte payload closed in place differs from Append's record", n)
		}
	}
}

func TestScan(t *testing.T) {
	sc := Open(sample(), "TEST", 1, 2, 16)
	var tags []uint64
	for sc.Next() {
		tags = append(tags, sc.Tag)
		switch sc.Tag {
		case 1:
			if string(sc.Payload) != "abc" {
				t.Fatalf("tag 1 = %q", sc.Payload)
			}
		case 2:
			if v, err := Uint(sc.Payload, 300); err != nil || v != 300 {
				t.Fatalf("tag 2 = %d, %v", v, err)
			}
			if _, err := Uint(sc.Payload, 299); err == nil {
				t.Fatal("Uint let a value over its limit through")
			}
			if _, err := Uint(append(sc.Payload[:len(sc.Payload):len(sc.Payload)], 0), 300); err == nil {
				t.Fatal("Uint let bytes after the varint through")
			}
		}
	}
	if sc.Err() != nil || len(tags) != 3 || tags[2] != 7 {
		t.Fatalf("scan: tags %v, err %v", tags, sc.Err())
	}
	// Peek reads a cut container's leading records without its checksum,
	// and never mistakes the last four bytes for a record.
	if sc := Peek(sample()[:14], "TEST", 1, 2, 16); !sc.Next() || sc.Tag != 1 || string(sc.Payload) != "abc" || sc.Next() || sc.Err() != nil {
		t.Fatalf("Peek on a cut container = %d %q %v", sc.Tag, sc.Payload, sc.Err())
	}
	data := sample()
	if allocs := testing.AllocsPerRun(100, func() {
		sc := Open(data, "TEST", 1, 2, 16)
		for sc.Next() {
		}
	}); allocs != 0 {
		t.Fatalf("a scan allocates %.0f times", allocs)
	}
}

func TestOpenRejects(t *testing.T) {
	good := sample()
	reseal := func(b []byte) []byte {
		b = b[:len(b)-4]
		return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	edit := func(fn func(b []byte) []byte) []byte { return fn(append([]byte(nil), good...)) }
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"empty":          {nil, "truncated"},
		"magic only":     {[]byte("TEST"), "truncated"},
		"other magic":    {edit(func(b []byte) []byte { b[0] = 'X'; return b }), "bad magic"},
		"bit flip":       {edit(func(b []byte) []byte { b[7] ^= 1; return b }), "checksum"},
		"cut":            {good[:len(good)-1], "checksum"},
		"version zero":   {reseal(edit(func(b []byte) []byte { b[4] = 0; return b })), "unsupported version"},
		"future version": {reseal(edit(func(b []byte) []byte { b[4] = 3; return b })), "unsupported version"},
		"record overrun": {reseal(edit(func(b []byte) []byte { b[6] = 200; return b })), "claims"},
		"over maxField":  {reseal(append(Append([]byte("TEST\x01"), 1, strings.Repeat("x", 17)), 0, 0, 0, 0)), "claims"},
		"cut in a tag":   {reseal(append([]byte("TEST\x01\x80"), 0, 0, 0, 0)), "record tag"},
	} {
		sc := Open(tc.data, "TEST", 1, 2, 16)
		for sc.Next() {
		}
		if err := sc.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
	if sc := Open(good, "TEST", 3, 3, 16); sc.Err() == nil || !strings.Contains(sc.Err().Error(), "unsupported version") {
		t.Errorf("a version-2 container under a floor of 3: err = %v", sc.Err())
	}
}

func TestReaderBounds(t *testing.T) {
	var b []byte
	b = AppendStr(b, "kind")
	b = AppendZigzag(b, -12)
	b = AppendBool(b, true)
	b = binary.AppendUvarint(b, 2) // a count of two…
	b = append(b, 9, 9)            // …one-byte elements
	r := Reader{B: b}
	if s, err := r.Str(); err != nil || s != "kind" {
		t.Fatalf("Str = %q, %v", s, err)
	}
	if v, err := r.Zigzag(); err != nil || v != -12 {
		t.Fatalf("Zigzag = %d, %v", v, err)
	}
	if v, err := r.Bool(); err != nil || !v {
		t.Fatalf("Bool = %v, %v", v, err)
	}
	if n, err := r.Count(100); err != nil || n != 2 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	for name, tc := range map[string]struct {
		in   []byte
		read func(r *Reader) error
	}{
		"count past the bytes that remain": {[]byte{3, 0, 0}, func(r *Reader) error { _, err := r.Count(100); return err }},
		"count over its limit":             {[]byte{2, 0, 0}, func(r *Reader) error { _, err := r.Count(1); return err }},
		"string past the end":              {[]byte{5, 'a'}, func(r *Reader) error { _, err := r.Str(); return err }},
		"varint cut short":                 {[]byte{0x80}, func(r *Reader) error { _, err := r.Uvarint(); return err }},
		"int over int32":                   {binary.AppendUvarint(nil, 1<<31), func(r *Reader) error { _, err := r.Int(); return err }},
		"zigzag under int32":               {AppendZigzag(nil, -1<<31-1), func(r *Reader) error { _, err := r.Zigzag(); return err }},
		"bool of nothing":                  {nil, func(r *Reader) error { _, err := r.Bool(); return err }},
	} {
		if tc.read(&Reader{B: tc.in}) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzRecords holds the shared codec to the hostile-input bar every format
// built on it inherits: any input either errors or yields payloads that lie
// inside it, and nothing the cursor returns is sized by a number the input
// claimed rather than by bytes it holds. The seed corpus (testdata/fuzz) is
// one real container of each of the six formats.
func FuzzRecords(f *testing.F) {
	f.Add(sample())
	f.Add([]byte("VACT"))
	f.Add([]byte{})
	magics := []string{"VSNP", "VSNE", "VACT", "VRPL", "VWCH", "VTLM", "TEST"}
	f.Fuzz(func(t *testing.T, data []byte) {
		inside := func(p []byte) {
			// A subslice of data starts cap(data)-cap(p) bytes in.
			at := cap(data) - cap(p)
			if at < 0 || at+len(p) > len(data) || (len(p) > 0 && &p[0] != &data[at]) {
				t.Fatalf("payload of %d bytes is not inside the %d-byte input", len(p), len(data))
			}
		}
		for _, magic := range magics {
			for sc := Peek(data, magic, 1, 3, 1<<20); sc.Next(); {
				inside(sc.Payload)
			}
			sc := Open(data, magic, 1, 3, 1<<20)
			for sc.Next() {
				inside(sc.Payload)
				r := Reader{B: sc.Payload}
				if n, err := r.Count(1 << 20); err == nil && n > len(r.B) {
					t.Fatalf("count %d with %d bytes left", n, len(r.B))
				}
				if s, err := r.Str(); err == nil && len(s) > len(sc.Payload) {
					t.Fatalf("a %d-byte string out of a %d-byte payload", len(s), len(sc.Payload))
				}
				r.Zigzag()
				r.Int()
				r.Bool()
			}
			if sc.Err() == nil && len(data) < len(magic)+1+4 {
				t.Fatalf("a %d-byte input opened clean", len(data))
			}
		}
	})
}
