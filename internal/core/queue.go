package core

// queue is the scheduler's binary heap of entries under one total
// order: descending prio, then ascending rank (before). Two entries that
// tie on both are the same entry, so the pop sequence is a function of
// the set of entries — not of the heap's layout, the order they were
// pushed in, or its history of pops. A queue rebuilt from the same
// entries pops the same sequence. Sift-up and sift-down carry the
// moving entry in a register and shift the hole instead of swapping
// slots.
type queue struct {
	items []entry
}

// before reports whether a pops ahead of b: a higher priority, or an
// equal one and a lower rank. Ranks are edge order (Prune emits weight
// descending, then (A, B)), then pairs outside the edge list in the
// order they were first tracked.
func before(a, b entry) bool {
	return a.prio > b.prio || a.prio == b.prio && a.rank < b.rank
}

// newQueue takes ownership of items and heapifies them in place with
// Floyd's sift-down, O(n) instead of n pushes. Input already in the
// queue's order is left untouched.
func newQueue(items []entry) queue {
	q := queue{items: items}
	for i := len(items)/2 - 1; i >= 0; i-- {
		q.down(i, items[i])
	}
	return q
}

// Len returns the number of entries, stale ones included.
func (q *queue) Len() int { return len(q.items) }

// Push adds an entry.
func (q *queue) Push(e entry) {
	q.items = append(q.items, e)
	items := q.items
	i := len(items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(e, items[p]) {
			break
		}
		items[i] = items[p]
		i = p
	}
	items[i] = e
}

// Peek returns the first entry in the queue's order without removing
// it. It reports false if the queue is empty.
func (q *queue) Peek() (entry, bool) {
	if len(q.items) == 0 {
		return entry{}, false
	}
	return q.items[0], true
}

// Pop removes and returns the first entry in the queue's order. It
// reports false if the queue is empty.
func (q *queue) Pop() (entry, bool) {
	last := len(q.items) - 1
	if last < 0 {
		return entry{}, false
	}
	top := q.items[0]
	e := q.items[last]
	q.items = q.items[:last]
	if last > 0 {
		q.down(0, e)
	}
	return top, true
}

// down sifts e from the hole at i toward the leaves, moving the
// earlier child up while it pops ahead of e.
func (q *queue) down(i int, e entry) {
	items := q.items
	n := len(items)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(items[r], items[c]) {
			c = r
		}
		if !before(items[c], e) {
			break
		}
		items[i] = items[c]
		i = c
	}
	items[i] = e
}
