package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
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

// sortedQueue is the queue's oracle: a slice kept sorted by the total
// order (descending prio, then ascending rank), written without a heap
// and without the queue's own comparison.
type sortedQueue []entry

func (s *sortedQueue) push(e entry) {
	i, _ := slices.BinarySearchFunc(*s, e, func(x, e entry) int {
		if c := cmp.Compare(e.prio, x.prio); c != 0 {
			return c
		}
		return cmp.Compare(x.rank, e.rank)
	})
	*s = slices.Insert(*s, i, e)
}

func (s *sortedQueue) pop() (entry, bool) {
	if len(*s) == 0 {
		return entry{}, false
	}
	e := (*s)[0]
	*s = (*s)[1:]
	return e, true
}

// TestQueuePopsTotalOrder is the queue's property test. With heavily
// tied priorities, a queue built by heapifying shuffled input, one
// built by one-by-one pushes, and both through random push/pop
// interleavings pop the same (rank, prio) sequence as a slice kept
// sorted by the total order: the pop sequence depends only on the set
// of entries, never on the heap's layout or history.
func TestQueuePopsTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 300; trial++ {
		init := tiedEntries(rng, 0, rng.Intn(80))
		next := len(init)
		var ref sortedQueue
		for _, e := range init {
			ref.push(e)
		}
		rng.Shuffle(len(init), func(i, j int) { init[i], init[j] = init[j], init[i] })
		floyd := newQueue(slices.Clone(init))
		var pushed queue
		for _, e := range init {
			pushed.Push(e)
		}
		for op := 0; op < 400; op++ {
			if rng.Intn(3) == 0 {
				e := tiedEntries(rng, next, 1)[0]
				next++
				floyd.Push(e)
				pushed.Push(e)
				ref.push(e)
				continue
			}
			want, wok := ref.pop()
			for _, q := range []*queue{&floyd, &pushed} {
				if got, ok := q.Pop(); got != want || ok != wok {
					t.Fatalf("trial %d op %d: queue popped %v,%v, the sorted slice %v,%v", trial, op, got, ok, want, wok)
				}
				if q.Len() != len(ref) {
					t.Fatalf("trial %d op %d: Len %d, the sorted slice holds %d", trial, op, q.Len(), len(ref))
				}
			}
		}
	}
}
