// Package handoff is the data path's one elastic hand-off between
// goroutines: a FIFO from any number of producers to one consumer
// goroutine. The LiveNet broker mailboxes and client delivery pumps,
// the Subscription buffer and the TCP wire pumps all hand off through
// it, so a producer never blocks on a slow consumer (paper §2–3: brokers
// forward asynchronously) and every one of those queues keeps memory
// under the same rule.
//
// # Storage
//
// The consumer takes the whole queue as one batch, and the batch it
// took last becomes the queue's next buffer, so a steady stream of
// pushes and takes allocates nothing. A buffer keeps the capacity of the
// largest burst it carried. Both buffers are dropped once the consumer
// has parked shrinkAfter times in a row holding more than
// max(shrinkRatio × the longest batch since it last parked, keepCap):
// a warm-up burst does not pin its high-water mark for the queue's life,
// and bursts that recur within shrinkAfter parks keep their buffers
// instead of dropping and regrowing them between each other.
package handoff

import "sync"

// The retention rule's constants (see the package doc).
const (
	shrinkRatio = 8
	keepCap     = 64
	shrinkAfter = 1024
)

// Queue is an elastic FIFO from many producers to one consumer. Push,
// Close, WaitIdle and Len are safe for concurrent use; Take and TryTake
// belong to the single consumer goroutine. The zero value is an empty,
// open queue.
type Queue[T any] struct {
	mu sync.Mutex
	// Both conds get L = &mu before each wait, which keeps the zero
	// Queue ready to use; Signal and Broadcast do not read L.
	ready  sync.Cond // the parked consumer waits here
	idle   sync.Cond // WaitIdle callers wait here
	items  []T       // guarded by mu
	closed bool      // guarded by mu
	parked bool      // guarded by mu; the consumer waits in Take on an empty queue

	// The consumer's own: every write happens in Take or TryTake.
	out   []T // the batch handed out last, recycled by the next take
	peak  int // longest batch since the consumer last parked
	slack int // consecutive parks that found the buffers oversized
}

// Push appends v and wakes the consumer; it never blocks. It reports
// false, and queues nothing, once the queue is closed.
//
//cosmos:hotpath
func (q *Queue[T]) Push(v T) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, v)
	if q.parked {
		q.ready.Signal()
	}
	q.mu.Unlock()
	return true
}

// Take blocks until an item is queued or the queue is closed, and
// returns every queued item in push order. After Close it still returns
// what was queued; it returns an empty batch only once the queue is
// closed and drained. The batch is the consumer's until its next Take
// or TryTake, which clears it and reuses it as the queue's buffer.
func (q *Queue[T]) Take() []T {
	q.recycle()
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.retainLocked()
		q.parked = true
		q.idle.Broadcast()
		q.ready.L = &q.mu
		q.ready.Wait()
		q.parked = false
	}
	return q.swapLocked()
}

// TryTake is Take without the wait: it returns an empty batch at once
// when nothing is queued.
func (q *Queue[T]) TryTake() []T {
	q.recycle()
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.swapLocked()
}

// Close refuses every later Push and wakes the consumer and WaitIdle.
// Items already queued stay for Take. Idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.ready.Signal()
	q.idle.Broadcast()
	q.mu.Unlock()
}

// WaitIdle blocks until the queue is empty and its consumer is parked
// in Take — so everything pushed before the call has been taken and
// handled — or until the queue is closed.
func (q *Queue[T]) WaitIdle() {
	q.mu.Lock()
	for (len(q.items) > 0 || !q.parked) && !q.closed {
		q.idle.L = &q.mu
		q.idle.Wait()
	}
	q.mu.Unlock()
}

// Len is the number of queued items not yet taken.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// recycle clears the batch handed out last, dropping its references.
func (q *Queue[T]) recycle() {
	clear(q.out)
	q.out = q.out[:0]
}

// swapLocked hands out the queued items and makes the last batch the
// queue's buffer. Callers hold q.mu.
func (q *Queue[T]) swapLocked() []T {
	if len(q.items) == 0 {
		return nil
	}
	batch := q.items
	q.items, q.out = q.out, batch
	q.peak = max(q.peak, len(batch))
	return batch
}

// retainLocked applies the retention rule as the consumer parks.
// Callers hold q.mu.
func (q *Queue[T]) retainLocked() {
	if keep := max(shrinkRatio*q.peak, keepCap); cap(q.items) <= keep && cap(q.out) <= keep {
		q.slack = 0
	} else if q.slack++; q.slack == shrinkAfter {
		q.items, q.out, q.slack = nil, nil, 0
	}
	q.peak = 0
}
