package core

// queue is the scheduler's max-heap of entries ordered by prio. It is
// the textbook binary heap specialised to entry: the comparison is an
// inline a.prio > b.prio rather than a call through a func value, and
// sift-up and sift-down carry the moving entry in a register and shift
// the hole instead of swapping slots. Both sifts make exactly the
// moves a swap-based heap with the same strict comparison makes, so
// Floyd heapify, Push and Pop give the same layout and the same pop
// sequence, ties included, as container.Heap under a.prio > b.prio.
// Tie order decides which of two equal-priority pairs runs first, so
// it is part of the trace.
type queue struct {
	items []entry
}

// newQueue takes ownership of items and heapifies them in place with
// Floyd's sift-down, O(n) instead of n pushes. Input already in
// descending priority order is left untouched.
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
		if !(e.prio > items[p].prio) {
			break
		}
		items[i] = items[p]
		i = p
	}
	items[i] = e
}

// Peek returns the highest-priority entry without removing it. It
// reports false if the queue is empty.
func (q *queue) Peek() (entry, bool) {
	if len(q.items) == 0 {
		return entry{}, false
	}
	return q.items[0], true
}

// Pop removes and returns the highest-priority entry. It reports false
// if the queue is empty.
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
// larger child up while it outranks e.
func (q *queue) down(i int, e entry) {
	items := q.items
	n := len(items)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && items[r].prio > items[c].prio {
			c = r
		}
		if !(items[c].prio > e.prio) {
			break
		}
		items[i] = items[c]
		i = c
	}
	items[i] = e
}
