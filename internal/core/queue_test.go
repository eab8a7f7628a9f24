package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/container"
)

// tiedEntries returns n entries with distinct ranks from first on and
// priorities drawn from a handful of values, so ties are the common
// case.
func tiedEntries(rng *rand.Rand, first, n int) []entry {
	out := make([]entry, n)
	for i := range out {
		out[i] = entry{rank: int32(first + i), prio: float64(rng.Intn(6)) / 4}
	}
	return out
}

// swapHeapify is the textbook swap-based Floyd heapify under the
// scheduler's strict a.prio > b.prio order: the layout the queue's
// hole-moving heapify must reproduce slot for slot.
func swapHeapify(items []entry) {
	n := len(items)
	for i := n/2 - 1; i >= 0; i-- {
		for j := i; ; {
			top, l, r := j, 2*j+1, 2*j+2
			if l < n && items[l].prio > items[top].prio {
				top = l
			}
			if r < n && items[r].prio > items[top].prio {
				top = r
			}
			if top == j {
				break
			}
			items[j], items[top] = items[top], items[j]
			j = top
		}
	}
}

// TestQueueMatchesContainerHeap is the queue's differential test: from
// the same heapified start, a random interleaving of pushes and pops
// with heavily tied priorities must pop the very same entries — state
// ranks, not just priorities — as container.Heap ordered by
// a.prio > b.prio. Tie order is what the golden trace digests pin.
func TestQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 200; trial++ {
		init := tiedEntries(rng, 0, rng.Intn(60))
		next := len(init)
		ref := slices.Clone(init)
		swapHeapify(ref)
		q := newQueue(slices.Clone(init))
		if !slices.Equal(q.items, ref) {
			t.Fatalf("trial %d: heapify layout differs from the swap-based heap", trial)
		}
		h := container.NewHeap(func(a, b entry) bool { return a.prio > b.prio })
		for _, e := range ref {
			h.Push(e) // ref is a valid heap: pushing it in order keeps the layout
		}
		for op := 0; op < 400; op++ {
			if rng.Intn(3) == 0 {
				e := tiedEntries(rng, next, 1)[0]
				next++
				q.Push(e)
				h.Push(e)
				continue
			}
			got, gok := q.Pop()
			want, wok := h.Pop()
			if got != want || gok != wok {
				t.Fatalf("trial %d op %d: queue popped %v,%v, container.Heap %v,%v", trial, op, got, gok, want, wok)
			}
			if q.Len() != h.Len() {
				t.Fatalf("trial %d op %d: Len %d, container.Heap %d", trial, op, q.Len(), h.Len())
			}
		}
	}
}

// TestQueueHeapifyEqualsPushes checks Floyd heapify against one-by-one
// pushes: the same entries in, the same priority sequence out.
func TestQueueHeapifyEqualsPushes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		items := tiedEntries(rng, 0, rng.Intn(200))
		floyd := newQueue(slices.Clone(items))
		var pushed queue
		for _, e := range items {
			pushed.Push(e)
		}
		for i := range items {
			a, _ := floyd.Pop()
			b, _ := pushed.Pop()
			if a.prio != b.prio {
				t.Fatalf("trial %d: pop %d is %v after heapify, %v after pushes", trial, i, a.prio, b.prio)
			}
		}
		if _, ok := floyd.Pop(); ok || floyd.Len() != 0 {
			t.Fatalf("trial %d: heapified queue holds more than its input", trial)
		}
	}
}

// TestQueueHeapifyKeepsDescending checks that input already in
// descending priority order — ties included — is left untouched by
// heapify, so a fresh resolver's snapshot sort runs on sorted input.
func TestQueueHeapifyKeepsDescending(t *testing.T) {
	var desc []entry
	for _, p := range []float64{9, 7, 5, 5, 3, 1, 1, 0} {
		desc = append(desc, entry{rank: int32(len(desc)), prio: p})
	}
	q := newQueue(slices.Clone(desc))
	if !slices.Equal(q.items, desc) {
		t.Fatalf("descending input reordered by heapify")
	}
}
