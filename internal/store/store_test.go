package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frame"
)

// both runs a subtest against the mem oracle and the disk backend.
func both(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) { fn(t, NewMem()) })
	t.Run("disk", func(t *testing.T) {
		d, err := OpenDisk(t.TempDir(), DiskOptions{Reset: true})
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
		err := s.ScanKeys([]byte{'d'}, func(k []byte) error {
			v, _, err := s.Get(k)
			got = append(got, string(v))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"0", "7", "8", "42", "1000"}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("scan order = %v, want %v", got, want)
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
	dir := t.TempDir()
	disk, err := OpenDisk(dir, DiskOptions{Reset: true})
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
		t.Fatalf("compaction did not shrink the file: %d -> %d", before, after)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "seg-*.dat")); len(files) != 1 {
		t.Fatalf("after compaction the directory holds %v, want one file", files)
	}
	requireEqual(t, mem, disk)
}

func requireEqual(t *testing.T, want, got Store) {
	t.Helper()
	type kv struct{ k, v string }
	collect := func(s Store) []kv {
		var out []kv
		if err := s.ScanKeys(nil, func(k []byte) error {
			v, ok, err := s.Get(k)
			if !ok && err == nil {
				err = fmt.Errorf("scanned key %q does not resolve", k)
			}
			out = append(out, kv{string(k), string(v)})
			return err
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

// TestDiskReset: a disk store always opens empty, clearing what an
// earlier process left — the store is derived state, so recovery
// rebuilds it from the WAL rather than trusting a file that may run
// ahead of the log's durable prefix. An open that would keep the old
// file is refused, naming the option.
func TestDiskReset(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{Reset: true})
	if err != nil {
		t.Fatal(err)
	}
	d.Put([]byte("stale"), []byte("x"))
	d.Close()
	if _, err := OpenDisk(dir, DiskOptions{}); err == nil || !strings.Contains(err.Error(), "Reset") {
		t.Fatalf("OpenDisk without Reset: err=%v, want one naming Reset", err)
	}
	r, err := OpenDisk(dir, DiskOptions{Reset: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Keys != 0 || st.Bytes != 0 {
		t.Fatalf("reset store still holds %d keys in %d bytes", st.Keys, st.Bytes)
	}
	if _, ok, _ := r.Get([]byte("stale")); ok {
		t.Fatal("reset store resolves a stale key")
	}
}

// TestDiskClosed: once closed, a store refuses reads and writes instead
// of reopening its file behind the caller's back.
func TestDiskClosed(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), DiskOptions{Reset: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("k"), []byte("body")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := d.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close = %q ok=%v err=%v, want ErrClosed", v, ok, err)
	}
	for name, err := range map[string]error{
		"Put":     d.Put([]byte("k2"), nil),
		"Delete":  d.Delete([]byte("k")),
		"Compact": d.Compact(),
	} {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close = %v, want ErrClosed", name, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestDiskCorruptRecord flips single bytes of one record in the live
// file — header, key and value — and requires every Get of that record
// to fail with frame.ErrCorrupt instead of serving altered bytes, while
// the other records still read back intact. A compaction over the
// damaged record fails the same way and leaves the store as it was.
func TestDiskCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{Reset: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Enough bytes to overflow the append buffer, so the first records
	// are in the file, not only in memory.
	const n, size = 40, 8 << 10
	val := func(i uint64) []byte { return bytes.Repeat([]byte{byte(i + 1)}, size) }
	for i := uint64(0); i < n; i++ {
		if err := d.Put(U64Key('d', i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, "seg-000001.dat"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	flip := func(off int64) {
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x5a
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}
	const keyOff = frame.HeaderSize + klenSize
	valOff := int64(keyOff + len(U64Key('d', 0)))
	for _, off := range []int64{0, 4, 8, keyOff - 1, keyOff + 3, valOff, valOff + size - 1} {
		flip(off)
		if v, ok, err := d.Get(U64Key('d', 0)); !errors.Is(err, frame.ErrCorrupt) {
			t.Fatalf("byte %d flipped: Get = %d bytes ok=%v err=%v, want frame.ErrCorrupt", off, len(v), ok, err)
		}
		if err := d.Compact(); !errors.Is(err, frame.ErrCorrupt) {
			t.Fatalf("byte %d flipped: Compact err=%v, want frame.ErrCorrupt", off, err)
		}
		flip(off)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok, err := d.Get(U64Key('d', i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("record %d after the flips: %d bytes ok=%v err=%v", i, len(v), ok, err)
		}
	}
}

func TestDiskResidentBelowBytes(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), DiskOptions{Reset: true})
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
