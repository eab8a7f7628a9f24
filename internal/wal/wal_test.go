package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func appendAll(t *testing.T, l *Log, recs []Record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r.Type, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
}

func sameRecords(t *testing.T, label string, want, got []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("%s: record %d = (%d, %q), want (%d, %q)",
				label, i, got[i].Type, got[i].Payload, want[i].Type, want[i].Payload)
		}
	}
}

func testRecords() []Record {
	return []Record{
		{Type: TypeIngest, Payload: []byte(`[{"kb":"a","uri":"x"}]`)},
		{Type: TypeStart, Payload: nil},
		{Type: TypeIngest, Payload: []byte(`[{"kb":"b","uri":"y","attrs":[{"predicate":"p","value":"v"}]}]`)},
		{Type: TypeEvict, Payload: []byte(`{"refs":[{"kb":"a","uri":"x"}]}`)},
	}
}

func TestRoundTrip(t *testing.T) {
	for _, policy := range []Policy{SyncAlways, SyncWave, SyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, recs, err := Open(dir, policy)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 0 {
				t.Fatalf("fresh log has %d records", len(recs))
			}
			want := testRecords()
			appendAll(t, l, want)
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			st := l.Stats()
			if st.Records != int64(len(want)) || st.Bytes == 0 {
				t.Errorf("stats = %+v, want %d records", st, len(want))
			}
			if policy != SyncOff && st.LastSyncUnixNano == 0 {
				t.Errorf("policy %s never fsynced", policy)
			}
			if policy == SyncOff && st.LastSyncUnixNano != 0 {
				t.Error("policy off fsynced")
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(TypeIngest, nil); err == nil {
				t.Error("append on a closed log accepted")
			}

			l2, got, err := Open(dir, policy)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			sameRecords(t, "reopen", want, got)
			if s := l2.Stats(); s.Records != int64(len(want)) {
				t.Errorf("reopened record count = %d, want %d", s.Records, len(want))
			}
		})
	}
}

// TestTornTailEveryByte is the frame reader's crash proof: for every
// possible truncation point of a multi-record log, the reader recovers
// exactly the records whose frames survive in full, and the reopened
// log appends cleanly on that boundary.
func TestTornTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords()
	// Frame boundaries, for computing how many records survive a cut.
	bounds := []int64{0}
	for _, r := range want {
		if err := l.Append(r.Type, r.Payload); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, l.Stats().Bytes)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(raw); cut++ {
		survivors := 0
		for _, b := range bounds[1:] {
			if int64(cut) >= b {
				survivors++
			}
		}
		tdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(tdir, logName), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tl, got, err := Open(tdir, SyncOff)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		sameRecords(t, fmt.Sprintf("cut %d", cut), want[:survivors], got)
		// The torn tail must be gone: appending and reopening yields
		// the surviving prefix plus the new record.
		if err := tl.Append(TypeStart, []byte("post-crash")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := tl.Close(); err != nil {
			t.Fatal(err)
		}
		relog, again, err := Open(tdir, SyncOff)
		if err != nil {
			t.Fatalf("cut %d: reopen after append: %v", cut, err)
		}
		if err := relog.Close(); err != nil {
			t.Fatal(err)
		}
		sameRecords(t, fmt.Sprintf("cut %d + append", cut),
			append(append([]Record(nil), want[:survivors]...), Record{Type: TypeStart, Payload: []byte("post-crash")}), again)
	}
}

// TestCloseSyncsOnlyWhatChanged pins when Close flushes, read from
// Stats().LastSyncUnixNano after the close: a log opened and closed
// untouched never syncs; a close after an append under SyncOff (which
// never syncs on its own) does; so does a close after Open truncated a
// torn tail, though nothing was appended.
func TestCloseSyncsOnlyWhatChanged(t *testing.T) {
	lastSyncAfterClose := func(t *testing.T, dir string, appendOne bool) int64 {
		t.Helper()
		l, _, err := Open(dir, SyncOff)
		if err != nil {
			t.Fatal(err)
		}
		if appendOne {
			appendAll(t, l, testRecords()[:1])
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return l.Stats().LastSyncUnixNano
	}

	dir := t.TempDir()
	if got := lastSyncAfterClose(t, dir, false); got != 0 {
		t.Errorf("clean open and close synced (LastSyncUnixNano %d)", got)
	}
	if got := lastSyncAfterClose(t, dir, true); got == 0 {
		t.Error("close after an append under SyncOff did not sync")
	}
	if got := lastSyncAfterClose(t, dir, false); got != 0 {
		t.Errorf("reopening a whole log and closing it synced (LastSyncUnixNano %d)", got)
	}

	// A torn tail: a whole frame, then half of a second one.
	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, raw[:len(raw)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := lastSyncAfterClose(t, dir, false); got == 0 {
		t.Error("close after Open truncated a torn tail did not sync")
	}
}

// TestCorruptByte flips each byte of the log in turn: recovery must
// stop cleanly at (or before) the frame holding the flip and never
// error, allocate wildly, or return a record that fails its checksum.
func TestCorruptByte(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords()
	bounds := []int64{0}
	for _, r := range want {
		if err := l.Append(r.Type, r.Payload); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, l.Stats().Bytes)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}

	for pos := 0; pos < len(raw); pos++ {
		// The flip lands inside frame f: every record before f must
		// survive; f and everything after must not.
		frame := 0
		for frame+1 < len(bounds) && int64(pos) >= bounds[frame+1] {
			frame++
		}
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0xff
		tdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(tdir, logName), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		tl, got, err := Open(tdir, SyncOff)
		if err != nil {
			t.Fatalf("flip at %d: %v", pos, err)
		}
		tl.Close()
		sameRecords(t, fmt.Sprintf("flip at %d", pos), want[:frame], got)
	}
}

func TestCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, SyncWave)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords())
	grown := l.Stats().Bytes

	chk := []byte(`{"descs":[{"kb":"b","uri":"y"}]}`)
	if err := l.Checkpoint(chk); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Records != 1 || st.Checkpoints != 1 {
		t.Errorf("post-checkpoint stats = %+v, want 1 record, 1 checkpoint", st)
	}
	if st.Bytes >= grown {
		t.Errorf("checkpoint did not shrink the log: %d -> %d bytes", grown, st.Bytes)
	}
	if _, err := os.Stat(filepath.Join(dir, logName+".tmp")); !os.IsNotExist(err) {
		t.Error("checkpoint left its temp file behind")
	}

	// Appends continue on the rotated file and survive a reopen.
	post := Record{Type: TypeIngest, Payload: []byte(`[{"kb":"c","uri":"z"}]`)}
	if err := l.Append(post.Type, post.Payload); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := Open(dir, SyncWave)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "after rotation", []Record{{Type: TypeCheckpoint, Payload: chk}, post}, got)
}

// TestImplausibleLength plants a frame whose length field decodes to
// gigabytes: the reader must stop cleanly instead of allocating it.
func TestImplausibleLength(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	good := Record{Type: TypeIngest, Payload: []byte("ok")}
	if err := l.Append(good.Type, good.Payload); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, TypeIngest}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, got, err := Open(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "after implausible length", []Record{good}, got)
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"always", SyncAlways}, {"wave", SyncWave}, {"off", SyncOff}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("Policy(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestOversizedRecordRefused(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Claim the impossible size without allocating it.
	if err := l.Append(TypeIngest, make([]byte, 0, 0)[:0]); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Records != 1 {
		t.Fatalf("empty payload refused: %+v", st)
	}
}

// TestFrameCapBoundary lowers the frame cap (a var for exactly this)
// and walks the boundary: an at-cap payload frames and re-reads, one
// byte over is refused with the typed ErrFrameTooLarge — on Append and
// on Checkpoint — and a refused record leaves the log byte-identical,
// still appendable, and still recoverable. The old check produced an
// untyped error callers could only string-match; worse, without any
// check the length cast to the frame's 32-bit field would have written
// a wrapped length and corrupted everything after it.
func TestFrameCapBoundary(t *testing.T) {
	old := maxPayload
	maxPayload = 64
	t.Cleanup(func() { maxPayload = old })
	if MaxPayload() != 64 {
		t.Fatalf("MaxPayload() = %d, want the injected 64", MaxPayload())
	}

	dir := t.TempDir()
	l, _, err := Open(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	atCap := bytes.Repeat([]byte{'a'}, maxPayload)
	if err := l.Append(TypeIngest, atCap); err != nil {
		t.Fatalf("at-cap append: %v", err)
	}
	sizeBefore := l.Stats().Bytes

	over := bytes.Repeat([]byte{'b'}, maxPayload+1)
	if err := l.Append(TypeIngest, over); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("over-cap append = %v, want ErrFrameTooLarge", err)
	}
	if err := l.Checkpoint(over); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("over-cap checkpoint = %v, want ErrFrameTooLarge", err)
	}
	if st := l.Stats(); st.Bytes != sizeBefore || st.Records != 1 {
		t.Fatalf("refused record moved the log: %+v", st)
	}

	// The log is still healthy: appends continue, recovery sees exactly
	// the accepted frames.
	if err := l.Append(TypeEvict, []byte("after")); err != nil {
		t.Fatalf("append after refusal: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "after refused over-cap frames", []Record{
		{Type: TypeIngest, Payload: atCap},
		{Type: TypeEvict, Payload: []byte("after")},
	}, recs)
}
