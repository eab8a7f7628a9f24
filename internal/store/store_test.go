package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// both runs a subtest against the mem oracle and the disk backend.
func both(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) { fn(t, NewMem()) })
	t.Run("disk", func(t *testing.T) {
		d, err := OpenDisk(t.TempDir(), DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		fn(t, d)
	})
}

func TestStoreBasics(t *testing.T) {
	both(t, func(t *testing.T, s Store) {
		if _, ok, err := s.Get([]byte("absent")); err != nil || ok {
			t.Fatalf("Get(absent) = ok=%v err=%v", ok, err)
		}
		if err := s.Put([]byte("a"), []byte("1")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put([]byte("a"), []byte("2")); err != nil {
			t.Fatal(err) // overwrite
		}
		v, ok, err := s.Get([]byte("a"))
		if err != nil || !ok || string(v) != "2" {
			t.Fatalf("Get(a) = %q ok=%v err=%v", v, ok, err)
		}
		if err := s.Delete([]byte("a")); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete([]byte("a")); err != nil {
			t.Fatal(err) // idempotent
		}
		if _, ok, _ := s.Get([]byte("a")); ok {
			t.Fatal("deleted key still resolves")
		}
		if err := s.Put([]byte("empty"), nil); err != nil {
			t.Fatal(err)
		}
		v, ok, err = s.Get([]byte("empty"))
		if err != nil || !ok || len(v) != 0 {
			t.Fatalf("Get(empty) = %q ok=%v err=%v", v, ok, err)
		}
	})
}

func TestStoreScanOrder(t *testing.T) {
	both(t, func(t *testing.T, s Store) {
		for _, id := range []uint64{42, 7, 0, 1000, 8} {
			if err := s.Put(U64Key('d', id), []byte(fmt.Sprint(id))); err != nil {
				t.Fatal(err)
			}
		}
		s.Put([]byte("p-token"), []byte("x")) // other namespace, excluded
		var got []string
		err := s.Scan([]byte{'d'}, func(k, v []byte) error {
			got = append(got, string(v))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"0", "7", "8", "42", "1000"}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("scan order = %v, want %v", got, want)
		}
		var keys int
		if err := s.ScanKeys([]byte{'d'}, func(k []byte) error { keys++; return nil }); err != nil {
			t.Fatal(err)
		}
		if keys != 5 {
			t.Fatalf("ScanKeys saw %d keys, want 5", keys)
		}
		if err := DropPrefix(s, []byte{'d'}); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Keys != 1 {
			t.Fatalf("after DropPrefix Keys = %d, want 1", st.Keys)
		}
	})
}

// TestStoreDifferential drives both backends through one random
// workload and requires identical contents at every step.
func TestStoreDifferential(t *testing.T) {
	mem := NewMem()
	disk, err := OpenDisk(t.TempDir(), DiskOptions{SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	rng := rand.New(rand.NewSource(2016))
	for op := 0; op < 4000; op++ {
		key := U64Key(byte('a'+rng.Intn(3)), uint64(rng.Intn(200)))
		switch rng.Intn(4) {
		case 0:
			if err := mem.Delete(key); err != nil {
				t.Fatal(err)
			}
			if err := disk.Delete(key); err != nil {
				t.Fatal(err)
			}
		default:
			val := make([]byte, rng.Intn(300))
			rng.Read(val)
			if err := mem.Put(key, val); err != nil {
				t.Fatal(err)
			}
			if err := disk.Put(key, val); err != nil {
				t.Fatal(err)
			}
		}
		if op == 2000 {
			if err := disk.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	requireEqual(t, mem, disk)

	// Compaction preserves contents and reclaims dead bytes.
	before := disk.Stats().Bytes
	if err := disk.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := disk.Stats().Bytes; after >= before {
		t.Fatalf("compaction did not shrink segments: %d -> %d", before, after)
	}
	requireEqual(t, mem, disk)
}

func requireEqual(t *testing.T, want, got Store) {
	t.Helper()
	type kv struct{ k, v string }
	collect := func(s Store) []kv {
		var out []kv
		if err := s.Scan(nil, func(k, v []byte) error {
			out = append(out, kv{string(k), string(v)})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	w, g := collect(want), collect(got)
	if len(w) != len(g) {
		t.Fatalf("stores diverge: %d vs %d keys", len(w), len(g))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("stores diverge at %d: %q=%q vs %q=%q", i, w[i].k, w[i].v, g[i].k, g[i].v)
		}
	}
}

// TestDiskReplay closes and reopens a store and requires the locator
// to rebuild exactly, including deletions and overwrites.
func TestDiskReplay(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		if err := d.Put(U64Key('d', i), bytes.Repeat([]byte{byte(i)}, 20)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 50; i += 3 {
		if err := d.Delete(U64Key('d', i)); err != nil {
			t.Fatal(err)
		}
	}
	d.Put(U64Key('d', 7), []byte("rewritten"))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDisk(dir, DiskOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := uint64(0); i < 50; i++ {
		v, ok, err := r.Get(U64Key('d', i))
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if ok {
				t.Fatalf("deleted key %d survived replay", i)
			}
			continue
		}
		want := bytes.Repeat([]byte{byte(i)}, 20)
		if i == 7 {
			want = []byte("rewritten")
		}
		if !ok || !bytes.Equal(v, want) {
			t.Fatalf("key %d = %q ok=%v after replay", i, v, ok)
		}
	}
}

// TestDiskTornTail truncates the newest segment at every byte offset
// and requires reopening to recover exactly the records whose frames
// survived whole — the store-level mirror of the WAL's torn-tail
// discipline.
func TestDiskTornTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{}) // one segment: every record in it
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := uint64(0); i < n; i++ {
		if err := d.Put(U64Key('d', i), bytes.Repeat([]byte{byte('A' + i)}, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-000001.dat")
	image, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recSize := len(image) / n
	if recSize*n != len(image) {
		t.Fatalf("uneven segment: %d bytes / %d records", len(image), n)
	}
	for cut := 0; cut <= len(image); cut++ {
		if err := os.WriteFile(seg, image[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenDisk(dir, DiskOptions{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantLive := cut / recSize // records fully inside the cut
		if got := int(r.Stats().Keys); got != wantLive {
			r.Close()
			t.Fatalf("cut %d: recovered %d records, want %d", cut, got, wantLive)
		}
		for i := 0; i < wantLive; i++ {
			v, ok, err := r.Get(U64Key('d', uint64(i)))
			if err != nil || !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte('A' + i)}, 10)) {
				r.Close()
				t.Fatalf("cut %d: record %d = %q ok=%v err=%v", cut, i, v, ok, err)
			}
		}
		// The torn tail is truncated: appends restart on a clean boundary.
		if err := r.Put([]byte("new"), []byte("after-tear")); err != nil {
			r.Close()
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		r.Close()
	}
}

// TestDiskCorruptMidFile flips one byte in each record's frame and
// requires replay to stop at the corruption, never resurrect it.
func TestDiskCorruptMidFile(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := uint64(0); i < n; i++ {
		if err := d.Put(U64Key('d', i), bytes.Repeat([]byte{byte(i + 1)}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	seg := filepath.Join(dir, "seg-000001.dat")
	image, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recSize := len(image) / n
	for rec := 0; rec < n; rec++ {
		corrupt := append([]byte(nil), image...)
		corrupt[rec*recSize+keyOffset] ^= 0x5a // flip a key byte under the CRC
		if err := os.WriteFile(seg, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenDisk(dir, DiskOptions{})
		if err != nil {
			t.Fatalf("rec %d: %v", rec, err)
		}
		if got := int(r.Stats().Keys); got != rec {
			r.Close()
			t.Fatalf("corrupting record %d recovered %d records, want %d", rec, got, rec)
		}
		r.Close()
	}
}

// TestDiskReset wipes existing segments: the store is derived state,
// so recovery rebuilds it from the WAL rather than trusting segments
// that may run ahead of the log's durable prefix.
func TestDiskReset(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.Put([]byte("stale"), []byte("x"))
	d.Close()
	r, err := OpenDisk(dir, DiskOptions{Reset: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Keys != 0 {
		t.Fatalf("reset store still holds %d keys", st.Keys)
	}
	if _, ok, _ := r.Get([]byte("stale")); ok {
		t.Fatal("reset store resolves a stale key")
	}
}

func TestDiskResidentBelowBytes(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	val := make([]byte, 4096)
	for i := uint64(0); i < 64; i++ {
		if err := d.Put(U64Key('d', i), val); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Resident*4 > st.Bytes {
		t.Fatalf("locator not sparse: resident=%d of bytes=%d", st.Resident, st.Bytes)
	}
}

func TestLRU(t *testing.T) {
	l := NewLRU[int, string](2)
	l.Put(1, "a")
	l.Put(2, "b")
	if v, ok := l.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q ok=%v", v, ok)
	}
	l.Put(3, "c") // evicts 2 (1 was just used)
	if _, ok := l.Get(2); ok {
		t.Fatal("LRU kept the least recently used entry")
	}
	if _, ok := l.Get(1); !ok {
		t.Fatal("LRU evicted the recently used entry")
	}
	l.Put(1, "a2")
	if v, _ := l.Get(1); v != "a2" {
		t.Fatalf("replace failed: %q", v)
	}
	l.Remove(1)
	if _, ok := l.Get(1); ok {
		t.Fatal("Remove left the entry")
	}
	hits, misses := l.Counters()
	if hits == 0 || misses == 0 {
		t.Fatalf("counters idle: hits=%d misses=%d", hits, misses)
	}
	l.Clear()
	if l.Len() != 0 {
		t.Fatal("Clear left entries")
	}
}
