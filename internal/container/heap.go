package container

// Heap is a generic binary heap ordered by a user-supplied less
// function. BoundedTopK keeps its top-k set in one. (The progressive
// scheduler has its own heap specialised to its slot type, in
// internal/core.)
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// NewHeap returns an empty heap ordered by less. For a max-heap pass a
// "greater" function.
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of items in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push adds an item.
func (h *Heap[T]) Push(v T) {
	h.items = append(h.items, v)
	h.up(len(h.items) - 1)
}

// Peek returns the minimum item without removing it. It reports false
// if the heap is empty.
func (h *Heap[T]) Peek() (T, bool) {
	if len(h.items) == 0 {
		var zero T
		return zero, false
	}
	return h.items[0], true
}

// Pop removes and returns the minimum item. It reports false if the
// heap is empty.
func (h *Heap[T]) Pop() (T, bool) {
	if len(h.items) == 0 {
		var zero T
		return zero, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero // release reference
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top, true
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			return
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < n && h.less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// BoundedTopK keeps the k largest items seen (by less: a<b means a ranks
// lower). Cardinality pruning in meta-blocking (CEP/CNP) uses it to retain
// the top-weighted edges without sorting the full edge set.
type BoundedTopK[T any] struct {
	k    int
	heap *Heap[T] // min-heap of the current top k
}

// NewBoundedTopK returns a collector for the k largest items.
func NewBoundedTopK[T any](k int, less func(a, b T) bool) *BoundedTopK[T] {
	return &BoundedTopK[T]{k: k, heap: NewHeap(less)}
}

// Offer considers v for the top-k set.
func (b *BoundedTopK[T]) Offer(v T) {
	if b.k <= 0 {
		return
	}
	if b.heap.Len() < b.k {
		b.heap.Push(v)
		return
	}
	if smallest, _ := b.heap.Peek(); b.heap.less(smallest, v) {
		b.heap.Pop()
		b.heap.Push(v)
	}
}

// Len returns how many items are currently retained (≤ k).
func (b *BoundedTopK[T]) Len() int { return b.heap.Len() }

// Threshold returns the smallest retained item, the entry bar for the
// top-k set. It reports false when empty.
func (b *BoundedTopK[T]) Threshold() (T, bool) { return b.heap.Peek() }
