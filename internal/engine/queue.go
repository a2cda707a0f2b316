package engine

import "math/bits"

// wheelSize is the width W of the timing wheel's window in cycles. It
// covers every delay the hmgperf matrix schedules on the Table II 4x4
// machine; on a 16x8 machine about 1% of events fall past it, into the
// overflow heap.
const (
	wheelSize  = 1024
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// event is a unit of scheduled work, stored by value in the queue. Its
// handler runs exactly once, at the event's cycle.
type event struct {
	at  Cycle
	seq uint64
	h   Handler
}

// before is the strict ordering of the event queue: time, then
// insertion order within a cycle (same-cycle FIFO).
func (ev *event) before(other *event) bool {
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}

// node is one pooled wheel entry. next links it into its slot's FIFO
// or, once popped, into the free list.
type node struct {
	ev   event
	next int32
}

// fifo is one wheel slot: the head and tail of a linked list of nodes.
// Node indices are 1-based so that 0 ends a list and the zero fifo is
// empty.
type fifo struct{ head, tail int32 }

// eventQueue is a timing wheel in front of an overflow heap.
//
// The wheel covers the window [base, base+wheelSize). Slot at&wheelMask
// holds the events of cycle at in push order. first is the slot of the
// earliest wheel event: a push to an earlier slot moves it back, and
// when a pop empties it, a scan of the occupancy bitmap (one bit per
// non-empty slot) finds the next occupied slot at or after base's slot,
// circularly. So push and pop are O(1), plus one short scan per cycle
// that had events. Every slot's FIFO lives in one pooled []node with a
// free list, which grows to the peak number of pending events and is
// then reused, so a warmed-up queue never allocates.
//
// An event outside the window (at >= base+wheelSize, or at < base, which
// the Engine never schedules but the bare queue allows) goes to the
// overflow heap. peek and pop merge the wheel head with the heap top by
// (at, seq), so same-cycle FIFO holds across the two structures as well
// as within a slot. Pushes in seq order, as the Engine makes them, keep
// each slot sorted by seq.
//
// base advances to the cycle of every popped event, heap pops included,
// and never moves back: all wheel events stay at or after the popped
// minimum and before the old window's end. Were base advanced by wheel
// pops only, every event after an idle gap longer than the window would
// bypass the wheel for good.
type eventQueue struct {
	base    Cycle
	first   int // valid while wheeled > 0
	slots   [wheelSize]fifo
	occ     [wheelWords]uint64
	nodes   []node
	free    int32
	wheeled int
	over    eventHeap
}

func (q *eventQueue) len() int { return q.wheeled + q.over.len() }

// push inserts ev: into its cycle's wheel slot when inside the window,
// else into the overflow heap.
//
//lint:allow hotalloc free-list and heap appends; growth is amortized and the backing arrays are reused in steady state
func (q *eventQueue) push(ev event) {
	if ev.at < q.base || ev.at-q.base >= wheelSize {
		q.over.evs = append(q.over.evs, ev)
		q.over.siftUp(len(q.over.evs) - 1)
		return
	}
	i := q.free
	if i != 0 {
		q.free = q.nodes[i-1].next
		q.nodes[i-1] = node{ev: ev}
	} else {
		q.nodes = append(q.nodes, node{ev: ev})
		i = int32(len(q.nodes))
	}
	s := int(ev.at & wheelMask)
	f := &q.slots[s]
	if f.tail == 0 {
		f.head = i
		q.occ[s>>6] |= 1 << (s & 63)
		if q.wheeled == 0 || q.offset(s) < q.offset(q.first) {
			q.first = s
		}
	} else {
		q.nodes[f.tail-1].next = i
	}
	f.tail = i
	q.wheeled++
}

// offset is slot s's distance in cycles from base's slot.
func (q *eventQueue) offset(s int) int { return (s - int(q.base)) & wheelMask }

// firstSlot returns the first occupied slot at or after base's slot,
// wrapping around the wheel. The wheel must be non-empty.
func (q *eventQueue) firstSlot() int {
	start := int(q.base & wheelMask)
	w := start >> 6
	if m := q.occ[w] >> (start & 63); m != 0 {
		return start + bits.TrailingZeros64(m)
	}
	// The last iteration revisits word w, whose bits at and after start
	// are clear: what remains there are the slots that wrapped around.
	for i := 1; i <= wheelWords; i++ {
		w = (w + 1) & (wheelWords - 1)
		if q.occ[w] != 0 {
			return w<<6 + bits.TrailingZeros64(q.occ[w])
		}
	}
	panic("engine: wheel occupancy bitmap empty with events pending")
}

// peek returns the earliest event without removing it. The queue must
// be non-empty.
func (q *eventQueue) peek() *event {
	if q.wheeled == 0 {
		return &q.over.evs[0]
	}
	ev := &q.nodes[q.slots[q.first].head-1].ev
	if q.over.len() > 0 && q.over.evs[0].before(ev) {
		return &q.over.evs[0]
	}
	return ev
}

// pop removes and returns the earliest event and advances base to its
// cycle. The vacated node is zeroed so the queue never pins dead
// closures or contexts for the garbage collector.
func (q *eventQueue) pop() event {
	if q.wheeled == 0 {
		ev := q.over.pop()
		q.advance(ev.at)
		return ev
	}
	s := q.first
	f := &q.slots[s]
	i := f.head
	n := &q.nodes[i-1]
	if q.over.len() > 0 && q.over.evs[0].before(&n.ev) {
		ev := q.over.pop()
		q.advance(ev.at)
		return ev
	}
	ev := n.ev
	f.head = n.next
	*n = node{next: q.free}
	q.free = i
	q.wheeled--
	q.advance(ev.at)
	if f.head == 0 {
		f.tail = 0
		q.occ[s>>6] &^= 1 << (s & 63)
		if q.wheeled > 0 {
			q.first = q.firstSlot()
		}
	}
	return ev
}

// advance moves the window forward to start at t. The caller guarantees
// that no wheel event is before t; a t behind base is ignored.
func (q *eventQueue) advance(t Cycle) {
	if t > q.base {
		q.base = t
	}
}

// eventHeap is the overflow path: a 4-ary min-heap over event values. A
// 4-ary layout halves the tree depth of a binary heap, trading a
// slightly wider min-child scan (cheap: the children share a cache line
// or two) for fewer levels of sift memory traffic. The backing slice is
// its own free list: pops shrink the length but keep capacity. The
// append that grows it is in eventQueue.push.
type eventHeap struct {
	evs []event
}

func (h *eventHeap) len() int { return len(h.evs) }

// siftUp restores heap order above index i.
func (h *eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !h.evs[i].before(&h.evs[parent]) {
			break
		}
		h.evs[i], h.evs[parent] = h.evs[parent], h.evs[i]
		i = parent
	}
}

// pop removes and returns the minimum event, zeroing the vacated tail
// slot.
func (h *eventHeap) pop() event {
	root := h.evs[0]
	n := len(h.evs) - 1
	h.evs[0] = h.evs[n]
	h.evs[n] = event{}
	h.evs = h.evs[:n]
	if n > 1 {
		h.siftDown(0)
	}
	return root
}

// siftDown restores heap order below index i.
func (h *eventHeap) siftDown(i int) {
	n := len(h.evs)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.evs[c].before(&h.evs[min]) {
				min = c
			}
		}
		if !h.evs[min].before(&h.evs[i]) {
			return
		}
		h.evs[i], h.evs[min] = h.evs[min], h.evs[i]
		i = min
	}
}
