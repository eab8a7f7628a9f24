package minoaner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// FuzzSessionLifecycle drives a pipeline through an op sequence decoded
// from the input and checks the session guarantees the README states
// after every op. The input's first byte picks the configuration
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
//	6 Snapshot any session and hold it
//	7 Start a new session, superseding the current one
//
// Ops 0–3 target a superseded session instead when the argument's top
// bit is set and one exists. The oracles: no panic; every error is a
// documented sentinel, or Start's refusal of an empty corpus; on every
// session Stats.Matches == len(Matches) and Stats.Comparisons never
// falls; the current session's collection holds no tombstone, its
// clusters partition its live set and every live description resolves;
// a held snapshot never changes.
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
		p := New(cfg)
		defer p.Close()
		pos := 1 + int(data[1])%len(stream)
		if err := p.Add(stream[:pos]); err != nil {
			t.Fatal(err)
		}
		s, err := p.Start()
		if err != nil {
			t.Fatal(err)
		}
		sessions := []*Session{s}
		spent := map[*Session]int{}
		type held struct {
			sn     *Snapshot
			digest string
		}
		var snaps []held

		ops := data[2:]
		for i := 0; i+1 < len(ops) && i < 64; i += 2 {
			op, arg := ops[i]%8, ops[i+1]
			cur := sessions[len(sessions)-1]
			target := cur
			if op <= 3 && arg&0x80 != 0 && len(sessions) > 1 {
				target = sessions[int(arg)%(len(sessions)-1)]
			}
			pick := sessions[int(arg)%len(sessions)]
			var err error
			switch op {
			case 0:
				batch := make([]Description, 1+int(arg)%24)
				for j := range batch {
					batch[j] = stream[pos%len(stream)]
					pos++
				}
				err = target.Ingest(batch)
			case 1:
				var refs []Ref
				for id := 0; id < target.col.Len() && len(refs) < 1+int(arg)%24; id++ {
					if target.col.Alive(id) {
						refs = append(refs, target.ref(id))
					}
				}
				err = target.Evict(refs)
			case 2:
				if target.col.Len() == 0 {
					break
				}
				rng := rand.New(rand.NewSource(int64(arg)))
				refs := make([]Ref, 1+rng.Intn(8))
				for j := range refs {
					refs[j] = target.ref(rng.Intn(target.col.Len()))
				}
				err = target.Evict(refs)
			case 3:
				err = target.EvictKB(kbs[int(arg)%len(kbs)])
			case 4:
				_, err = pick.Resume([]int{0, 1, 40}[int(arg)%3])
			case 5:
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				var res *Result
				res, err = pick.ResumeContext(ctx, 0)
				if !errors.Is(err, context.Canceled) || res == nil {
					t.Fatalf("op %d: cancelled Resume = %v, %v; want a result and context.Canceled", i/2, res != nil, err)
				}
				err = nil
			case 6:
				sn := pick.Snapshot()
				snaps = append(snaps, held{sn, snapshotDigest(sn)})
			case 7:
				var ns *Session
				if ns, err = p.Start(); err == nil {
					sessions = append(sessions, ns)
				} else if p.NumDescriptions() == 0 {
					err = nil // Start refuses an empty corpus
				}
			}
			if err != nil && !errors.Is(err, ErrUnknownDescription) && !errors.Is(err, ErrUnknownKB) &&
				!errors.Is(err, ErrSessionClosed) && !errors.Is(err, ErrBadBatch) {
				t.Fatalf("op %d (%d, %d): undocumented error %v", i/2, op, arg, err)
			}
			if target != cur && op <= 3 && !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("op %d (%d, %d): streaming on a superseded session returned %v, want ErrSessionClosed", i/2, op, arg, err)
			}
			for _, s := range sessions {
				checkSession(t, s, s == sessions[len(sessions)-1], spent)
			}
		}
		for _, h := range snaps {
			if got := snapshotDigest(h.sn); got != h.digest {
				t.Fatalf("a held snapshot changed:\n%s\nwas\n%s", got, h.digest)
			}
		}
	})
}

// checkSession snapshots s and checks the per-op oracles of
// FuzzSessionLifecycle; live marks the pipeline's current session,
// whose collection is the live set.
func checkSession(t *testing.T, s *Session, live bool, spent map[*Session]int) {
	t.Helper()
	sn := s.Snapshot()
	st := sn.Stats()
	if st.Matches != len(sn.Result().Matches) {
		t.Fatalf("Stats.Matches %d, %d matches listed", st.Matches, len(sn.Result().Matches))
	}
	if st.Comparisons < spent[s] {
		t.Fatalf("Stats.Comparisons fell from %d to %d", spent[s], st.Comparisons)
	}
	spent[s] = st.Comparisons
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

// snapshotDigest renders everything a snapshot serves.
func snapshotDigest(sn *Snapshot) string {
	return fmt.Sprintf("%+v|%d|%+v", *sn.Result(), sn.Pending(), sn.Stats())
}
