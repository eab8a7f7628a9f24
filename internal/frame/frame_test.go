package frame

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// golden is type 3 with payload "ab" — the bytes the write-ahead log
// has always written for that record, so the layout cannot drift.
var golden = []byte{0x02, 0x00, 0x00, 0x00, 0xed, 0x3d, 0x89, 0x99, 0x03, 'a', 'b'}

type rec struct {
	typ     byte
	payload []byte
}

func sample() []rec {
	return []rec{
		{1, []byte(`[{"kb":"a","uri":"x"}]`)},
		{2, nil},
		{3, []byte("ab")},
		{4, bytes.Repeat([]byte{0xa5, 0x00, 0xff}, 40)},
	}
}

// encode frames recs back to back and returns the buffer with the
// offset at which each frame ends.
func encode(recs []rec) ([]byte, []int) {
	var buf []byte
	var ends []int
	for _, r := range recs {
		buf = Append(buf, r.typ, r.payload)
		ends = append(ends, len(buf))
	}
	return buf, ends
}

// decodeSlice and decodeStream decode frames until the first error and
// return the frames with that error.
func decodeSlice(buf []byte, max int) ([]rec, error) {
	var out []rec
	for {
		typ, p, err := Decode(buf, max)
		if err != nil {
			return out, err
		}
		out = append(out, rec{typ, p})
		buf = buf[HeaderSize+len(p):]
	}
}

func decodeStream(buf []byte, max int) ([]rec, error) {
	r := bufio.NewReader(bytes.NewReader(buf))
	var out []rec
	for {
		typ, p, err := Read(r, max)
		if err != nil {
			return out, err
		}
		out = append(out, rec{typ, p})
	}
}

var decoders = []struct {
	name string
	fn   func([]byte, int) ([]rec, error)
}{{"slice", decodeSlice}, {"stream", decodeStream}}

// outcome names an error's class: clean end, torn, corrupt, or other.
func outcome(err error) string {
	switch {
	case err == io.EOF:
		return "end"
	case err == io.ErrUnexpectedEOF:
		return "torn"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return fmt.Sprintf("unexpected error %v", err)
}

func sameRecs(t *testing.T, label string, want, got []rec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].typ != want[i].typ || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("%s: frame %d = (%d, %x), want (%d, %x)",
				label, i, got[i].typ, got[i].payload, want[i].typ, want[i].payload)
		}
	}
}

func TestGoldenFrame(t *testing.T) {
	if got := Append(nil, 3, []byte("ab")); !bytes.Equal(got, golden) {
		t.Fatalf("Append(3, \"ab\") = % x, want % x", got, golden)
	}
	if got := Append([]byte("pre"), 3, []byte("a"), nil, []byte("b")); !bytes.Equal(got, append([]byte("pre"), golden...)) {
		t.Fatalf("Append with a prefix and split payload = % x", got)
	}
	for _, d := range decoders {
		got, err := d.fn(golden, 2)
		if err != io.EOF {
			t.Fatalf("%s: ended with %v, want a clean end", d.name, err)
		}
		sameRecs(t, d.name, []rec{{3, []byte("ab")}}, got)
	}
}

// TestFrameSweep cuts a multi-frame buffer at every offset and flips
// bits in every byte, through both decoders: each must return exactly
// the frames before the damage, end with the same outcome, and never
// accept a damaged frame.
func TestFrameSweep(t *testing.T) {
	want := sample()
	buf, ends := encode(want)
	const max = 1 << 16
	for cut := 0; cut <= len(buf); cut++ {
		survivors, boundary := 0, cut == 0
		for _, e := range ends {
			if cut >= e {
				survivors++
			}
			boundary = boundary || cut == e
		}
		wantEnd := "torn"
		if boundary {
			wantEnd = "end"
		}
		for _, d := range decoders {
			label := fmt.Sprintf("%s cut %d", d.name, cut)
			got, err := d.fn(buf[:cut], max)
			sameRecs(t, label, want[:survivors], got)
			if outcome(err) != wantEnd {
				t.Fatalf("%s: ended %s, want %s", label, outcome(err), wantEnd)
			}
		}
	}
	for pos := range buf {
		damaged := 0
		for damaged < len(ends) && pos >= ends[damaged] {
			damaged++
		}
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := bytes.Clone(buf)
			mut[pos] ^= flip
			var outcomes []string
			for _, d := range decoders {
				label := fmt.Sprintf("%s flip %#x at %d", d.name, flip, pos)
				got, err := d.fn(mut, max)
				sameRecs(t, label, want[:damaged], got)
				if o := outcome(err); o != "torn" && o != "corrupt" {
					t.Fatalf("%s: ended %s, want torn or corrupt", label, o)
				}
				outcomes = append(outcomes, outcome(err))
			}
			if outcomes[0] != outcomes[1] {
				t.Fatalf("flip %#x at %d: slice ended %s, stream %s", flip, pos, outcomes[0], outcomes[1])
			}
		}
	}
}

// capProbe records the largest buffer a reader is asked to fill: Read
// fills each payload buffer straight from its source, so this bounds
// what it allocated for one.
type capProbe struct {
	r      io.Reader
	maxCap int
}

func (c *capProbe) Read(b []byte) (int, error) {
	c.maxCap = max(c.maxCap, cap(b))
	return c.r.Read(b)
}

// FuzzFrame feeds arbitrary bytes to both decoders: neither panics or
// allocates past the cap, they agree frame for frame and on how the
// input ends, and every accepted frame re-encodes to its input bytes.
func FuzzFrame(f *testing.F) {
	buf, _ := encode(sample())
	f.Add(golden)
	f.Add(buf)
	f.Add(buf[:len(buf)-1])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1})
	const max = 1 << 10
	f.Fuzz(func(t *testing.T, data []byte) {
		var accepted []rec
		rest := data
		var sliceErr error
		for {
			typ, p, err := Decode(rest, max)
			if err != nil {
				sliceErr = err
				break
			}
			n := HeaderSize + len(p)
			if len(p) > max {
				t.Fatalf("accepted a %d-byte payload over the %d-byte cap", len(p), max)
			}
			if enc := Append(nil, typ, p); !bytes.Equal(enc, rest[:n]) {
				t.Fatalf("frame re-encodes to % x, input was % x", enc, rest[:n])
			}
			accepted = append(accepted, rec{typ, p})
			rest = rest[n:]
		}
		o := outcome(sliceErr)
		if o != "end" && o != "torn" && o != "corrupt" {
			t.Fatal(o)
		}

		r := &capProbe{r: bytes.NewReader(data)}
		var streamed []rec
		var streamErr error
		for streamErr == nil {
			var typ byte
			var p []byte
			typ, p, streamErr = Read(r, max)
			if streamErr == nil {
				streamed = append(streamed, rec{typ, p})
			}
		}
		if r.maxCap > max {
			t.Fatalf("Read handed its source a %d-byte buffer under a %d-byte cap", r.maxCap, max)
		}
		sameRecs(t, "stream vs slice", accepted, streamed)
		if so := outcome(streamErr); so != o {
			t.Fatalf("slice ended %s, stream %s", o, so)
		}
	})
}
