package minoaner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// FuzzSessionLifecycle drives a pipeline through an op sequence decoded
// from the input and checks the session guarantees the README states
// at every read. The input's first byte picks the configuration
// (TTL, worker count), the second the size of the corpus loaded before
// Start; every later pair of bytes is one op:
//
//	0 ingest the next 1–24 stream descriptions (the stream wraps, so
//	  late batches re-ingest evicted or live descriptions)
//	1 evict the 1–24 oldest live descriptions
//	2 evict 1–8 random descriptions, dead ones included
//	3 evict a whole KB (or one no description ever carried)
//	4 Resume(b), b ∈ {0, 1, 40}, on any session
//	5 a cancelled Resume on any session
//	6 read Pending and Gauges of any session (which first is the
//	  argument's low bit), then Snapshot it and hold it
//	7 Start a new session, superseding the current one
//
// Ops 0–3 target a superseded session instead when the argument's top
// bit is set and one exists. Mutations make no pass; reads (ops 4–6)
// make the one their mutations left pending. So the fuzzer drives an
// eager twin through the same ops, with a Snapshot after every op —
// the pass after every mutation — and every read of the fuzzed
// pipeline must answer what the twin answers.
//
// The oracles: no panic; every error is a documented sentinel, or
// Start's refusal of an empty corpus, and the twin returns the same
// one. At every read op and once at the end, on every session: the
// read's answer and snapshotDigest equal the twin's,
// Stats.Matches == len(Matches), and Stats.Comparisons never falls
// (Stats.Gated reads the current schedule and may fall; the twin's
// digest covers it);
// the current session's collection holds no tombstone, its clusters
// partition its live set and every live description resolves. A held
// snapshot never changes.
//
// Seeds live in testdata/fuzz/FuzzSessionLifecycle; a plain test run
// replays them. CI fuzzes for 30 seconds:
//
//	go test -run '^$' -fuzz=FuzzSessionLifecycle -fuzztime=30s .
func FuzzSessionLifecycle(f *testing.F) {
	stream := lodStream(f, 5, 60)
	kbs := []string{"centerA", "centerB", "periphX", "periphY", "ghost"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Defaults()
		// Bits 0–1 and 2–3 add up to the TTL window (0 = none).
		cfg.TTL = int(data[0]&3) + []int{0, 0, 2, 3}[data[0]>>2&3]
		cfg.Workers = 1 + int(data[0]>>4&1)
		p, twin := New(cfg), New(cfg)
		pos := 1 + int(data[1])%len(stream)
		if err := p.Add(stream[:pos]); err != nil {
			t.Fatal(err)
		}
		if err := twin.Add(stream[:pos]); err != nil {
			t.Fatal(err)
		}
		s, err := p.Start()
		if err != nil {
			t.Fatal(err)
		}
		ts, err := twin.Start()
		if err != nil {
			t.Fatal(err)
		}
		// twins[i] is sessions[i]'s eager twin.
		sessions, twins := []*Session{s}, []*Session{ts}
		spent := map[*Session]Stats{}
		type held struct {
			sn     *Snapshot
			digest string
		}
		var snaps []held
		checkAll := func(what string) {
			for i, s := range sessions {
				checkSession(t, what, s, twins[i], s == sessions[len(sessions)-1], spent, stream)
			}
		}

		ops := data[2:]
		for i := 0; i+1 < len(ops) && i < 64; i += 2 {
			op, arg := ops[i]%8, ops[i+1]
			what := fmt.Sprintf("op %d (%d, %d)", i/2, op, arg)
			ti := len(sessions) - 1
			if op <= 3 && arg&0x80 != 0 && len(sessions) > 1 {
				ti = int(arg) % (len(sessions) - 1)
			}
			target, twinTarget := sessions[ti], twins[ti]
			pi := int(arg) % len(sessions)
			pick, twinPick := sessions[pi], twins[pi]
			// The refs an eviction names are read off the fuzzed
			// session, tombstones included, and handed to both.
			var err, twinErr error
			switch op {
			case 0:
				batch := make([]Description, 1+int(arg)%24)
				for j := range batch {
					batch[j] = stream[pos%len(stream)]
					pos++
				}
				err, twinErr = target.Ingest(batch), twinTarget.Ingest(batch)
			case 1:
				var refs []Ref
				for id := 0; id < target.col.Len() && len(refs) < 1+int(arg)%24; id++ {
					if target.col.Alive(id) {
						refs = append(refs, target.ref(id))
					}
				}
				err, twinErr = target.Evict(refs), twinTarget.Evict(refs)
			case 2:
				if target.col.Len() == 0 {
					break
				}
				rng := rand.New(rand.NewSource(int64(arg)))
				refs := make([]Ref, 1+rng.Intn(8))
				for j := range refs {
					refs[j] = target.ref(rng.Intn(target.col.Len()))
				}
				err, twinErr = target.Evict(refs), twinTarget.Evict(refs)
			case 3:
				name := kbs[int(arg)%len(kbs)]
				err, twinErr = target.EvictKB(name), twinTarget.EvictKB(name)
			case 4:
				budget := []int{0, 1, 40}[int(arg)%3]
				res, rerr := pick.Resume(budget)
				want, werr := twinPick.Resume(budget)
				if rerr != nil || werr != nil {
					t.Fatalf("%s: Resume = %v, twin %v", what, rerr, werr)
				}
				if got, want := fmt.Sprintf("%+v", *res), fmt.Sprintf("%+v", *want); got != want {
					t.Fatalf("%s: Resume answered\n%s\nthe eager twin\n%s", what, got, want)
				}
			case 5:
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				res, rerr := pick.ResumeContext(ctx, 0)
				if !errors.Is(rerr, context.Canceled) || res == nil {
					t.Fatalf("%s: cancelled Resume = %v, %v; want a result and context.Canceled", what, res != nil, rerr)
				}
				want, _ := twinPick.ResumeContext(ctx, 0)
				if got, want := fmt.Sprintf("%+v", *res), fmt.Sprintf("%+v", *want); got != want {
					t.Fatalf("%s: cancelled Resume answered\n%s\nthe eager twin\n%s", what, got, want)
				}
			case 6:
				var pending int
				var gauges Gauges
				if arg&1 == 0 {
					pending, gauges = pick.Pending(), pick.Gauges()
				} else {
					gauges, pending = pick.Gauges(), pick.Pending()
				}
				if want := twinPick.Pending(); pending != want {
					t.Fatalf("%s: Pending %d, the eager twin %d", what, pending, want)
				}
				if want := twinPick.Gauges(); gauges != want {
					t.Fatalf("%s: Gauges %+v, the eager twin %+v", what, gauges, want)
				}
				sn, serr := pick.Snapshot()
				if serr != nil {
					t.Fatalf("%s: Snapshot: %v", what, serr)
				}
				snaps = append(snaps, held{sn, snapshotDigest(sn, stream)})
			case 7:
				var ns, nt *Session
				ns, err = p.Start()
				nt, twinErr = twin.Start()
				if err == nil && twinErr == nil {
					sessions, twins = append(sessions, ns), append(twins, nt)
				} else if p.NumDescriptions() == 0 && twin.NumDescriptions() == 0 {
					err, twinErr = nil, nil // Start refuses an empty corpus
				}
			}
			if fmt.Sprint(err) != fmt.Sprint(twinErr) {
				t.Fatalf("%s: returned %v, the eager twin %v", what, err, twinErr)
			}
			if err != nil && !errors.Is(err, ErrUnknownDescription) && !errors.Is(err, ErrUnknownKB) &&
				!errors.Is(err, ErrSessionClosed) && !errors.Is(err, ErrBadBatch) {
				t.Fatalf("%s: undocumented error %v", what, err)
			}
			if ti != len(sessions)-1 && op <= 3 && !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("%s: streaming on a superseded session returned %v, want ErrSessionClosed", what, err)
			}
			// The twin is eager: every op ends with its pass.
			if _, err := twins[len(twins)-1].Snapshot(); err != nil {
				t.Fatalf("%s: the eager twin's Snapshot: %v", what, err)
			}
			if op >= 4 && op <= 6 {
				checkAll(what)
			}
		}
		checkAll("at the end")
		for _, h := range snaps {
			if got := snapshotDigest(h.sn, stream); got != h.digest {
				t.Fatalf("a held snapshot changed:\n%s\nwas\n%s", got, h.digest)
			}
		}
	})
}

// checkSession snapshots s and its eager twin and checks the per-read
// oracles of FuzzSessionLifecycle; live marks the pipeline's current
// session, whose collection is the live set.
func checkSession(t *testing.T, what string, s, twin *Session, live bool, spent map[*Session]Stats, stream []Description) {
	t.Helper()
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatalf("%s: Snapshot: %v", what, err)
	}
	want, err := twin.Snapshot()
	if err != nil {
		t.Fatalf("%s: the eager twin's Snapshot: %v", what, err)
	}
	if got, want := snapshotDigest(sn, stream), snapshotDigest(want, stream); got != want {
		t.Fatalf("%s: the session reads\n%s\nthe eager twin\n%s", what, got, want)
	}
	st := sn.Stats()
	if st.Matches != len(sn.Result().Matches) {
		t.Fatalf("Stats.Matches %d, %d matches listed", st.Matches, len(sn.Result().Matches))
	}
	if st.Comparisons < spent[s].Comparisons {
		t.Fatalf("Stats.Comparisons went from %d to %d", spent[s].Comparisons, st.Comparisons)
	}
	spent[s] = st
	if !live {
		return
	}
	if n := s.Tombstones(); n != 0 {
		t.Fatalf("the current session's collection holds %d tombstones", n)
	}
	if st.Descriptions != s.col.NumAlive() {
		t.Fatalf("Stats.Descriptions %d, %d live", st.Descriptions, s.col.NumAlive())
	}
	seen := make(map[Ref]bool)
	for _, c := range sn.Result().Clusters {
		if len(c) < 2 {
			t.Fatalf("cluster %v lists fewer than two descriptions", c)
		}
		for _, r := range c {
			if id, ok := s.col.IDOf(r.KB, r.URI); !ok || !s.col.Alive(id) {
				t.Fatalf("cluster member %v is not live", r)
			}
			if seen[r] {
				t.Fatalf("%v sits in two clusters", r)
			}
			seen[r] = true
		}
	}
	for id := 0; id < s.col.Len(); id++ {
		if !s.col.Alive(id) {
			continue
		}
		r := s.ref(id)
		c, ok := sn.Cluster(r.KB, r.URI)
		if !ok || (len(c) > 1) != seen[r] {
			t.Fatalf("live %v resolves to %v, %v", r, c, ok)
		}
	}
}

// snapshotDigest renders everything a snapshot serves: the result,
// the pending count, the stats, and the lookups of every stream
// description — its Refs and its Cluster.
func snapshotDigest(sn *Snapshot, stream []Description) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v|%d|%+v", *sn.Result(), sn.Pending(), sn.Stats())
	for _, d := range stream {
		c, ok := sn.Cluster(d.KB, d.URI)
		fmt.Fprintf(&b, "|%v %v %v", sn.Refs(d.URI), c, ok)
	}
	return b.String()
}
