package handoff

import (
	"sync"
	"testing"
	"time"
)

// consume runs fn on every item q hands out, on one goroutine, until q
// is closed and drained; the returned channel closes when it returns.
func consume[T any](q *Queue[T], fn func(T)) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			batch := q.Take()
			if len(batch) == 0 {
				return
			}
			for _, v := range batch {
				fn(v)
			}
		}
	}()
	return done
}

// TestQueuePerProducerFIFO pins the ordering contract under concurrent
// producers: every item arrives once, and each producer's items arrive
// in its push order.
func TestQueuePerProducerFIFO(t *testing.T) {
	const producers, perProducer = 4, 5000
	type item struct{ producer, seq int }
	var q Queue[item]
	next := make([]int, producers)
	var bad []item
	done := consume(&q, func(it item) {
		if it.seq != next[it.producer] {
			bad = append(bad, it)
		}
		next[it.producer] = it.seq + 1
	})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if !q.Push(item{p, i}) {
					t.Errorf("producer %d: push %d refused on an open queue", p, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	q.Close()
	<-done
	if len(bad) > 0 {
		t.Fatalf("%d items out of order; first %+v", len(bad), bad[0])
	}
	for p, n := range next {
		if n != perProducer {
			t.Errorf("producer %d: %d of %d items arrived", p, n, perProducer)
		}
	}
}

func TestQueueClose(t *testing.T) {
	var q Queue[int]
	for i := 1; i <= 3; i++ {
		q.Push(i)
	}
	q.Close()
	q.Close() // idempotent
	if q.Push(4) {
		t.Fatal("push after Close accepted")
	}
	if n := q.Len(); n != 3 {
		t.Fatalf("Len after Close = %d, want 3", n)
	}
	if got := q.Take(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Take after Close = %v, want [1 2 3]", got)
	}
	if got := q.Take(); len(got) != 0 {
		t.Fatalf("Take on a closed, drained queue = %v, want empty", got)
	}
	if got := q.TryTake(); len(got) != 0 {
		t.Fatalf("TryTake on a closed, drained queue = %v, want empty", got)
	}
	q.WaitIdle() // returns on a closed queue with no consumer
}

// TestQueueWaitIdle pins WaitIdle's barrier: it returns only once the
// queue is empty and the consumer, done with its batch, has parked.
func TestQueueWaitIdle(t *testing.T) {
	var q Queue[int]
	gate := make(chan struct{})
	handled := 0
	done := consume(&q, func(int) {
		<-gate
		handled++
	})
	q.Push(1)
	q.Push(2)
	idle := make(chan struct{})
	go func() {
		q.WaitIdle()
		close(idle)
	}()
	select {
	case <-idle:
		t.Fatal("WaitIdle returned while items were queued or being handled")
	case <-time.After(50 * time.Millisecond):
	}
	gate <- struct{}{} // the consumer handles one item and blocks on the next
	select {
	case <-idle:
		t.Fatal("WaitIdle returned while the consumer was still handling a batch")
	case <-time.After(50 * time.Millisecond):
	}
	gate <- struct{}{}
	<-idle
	if handled != 2 {
		t.Fatalf("WaitIdle returned after %d of 2 items were handled", handled)
	}
	if n := q.Len(); n != 0 {
		t.Fatalf("WaitIdle returned with %d items queued", n)
	}
	q.Close()
	<-done
}

// parks drives a consumer one park at a time: cycle(n) hands it n
// items as one batch and returns once it has parked again.
type parks struct {
	q       Queue[int]
	entered chan struct{}
	gate    chan struct{}
	done    <-chan struct{}
}

func newParks() *parks {
	p := &parks{entered: make(chan struct{}), gate: make(chan struct{})}
	p.done = consume(&p.q, func(v int) {
		if v < 0 { // the cycle's marker: hold the consumer while the batch queues
			p.entered <- struct{}{}
			<-p.gate
		}
	})
	return p
}

func (p *parks) cycle(n int) {
	p.q.Push(-1)
	<-p.entered
	for i := 0; i < n; i++ {
		p.q.Push(i)
	}
	p.gate <- struct{}{}
	p.q.WaitIdle()
}

// held is the capacity both buffers hold. The consumer is parked, and
// touches neither buffer until the next push.
func (p *parks) held() int {
	p.q.mu.Lock()
	defer p.q.mu.Unlock()
	return cap(p.q.items) + cap(p.q.out)
}

func (p *parks) stop() {
	p.q.Close()
	<-p.done
}

// TestQueueRetention pins the retention rule: a one-off burst's
// buffers are dropped after shrinkAfter parks with small batches, while
// a burst that recurs every shrinkAfter/2 parks keeps its capacity.
func TestQueueRetention(t *testing.T) {
	const burst = 10000
	t.Run("one-off burst is dropped", func(t *testing.T) {
		p := newParks()
		defer p.stop()
		p.cycle(burst)
		if c := p.held(); c < burst {
			t.Fatalf("capacity %d after a %d-item burst", c, burst)
		}
		for i := 0; i < shrinkAfter; i++ {
			p.cycle(1)
		}
		if c := p.held(); c > keepCap {
			t.Fatalf("capacity %d after %d single-item cycles, want <= %d", c, shrinkAfter, keepCap)
		}
	})
	t.Run("recurring burst is kept", func(t *testing.T) {
		p := newParks()
		defer p.stop()
		for i := 0; i < 4*shrinkAfter; i++ {
			n := 1
			if i%(shrinkAfter/2) == 0 {
				n = burst
			}
			p.cycle(n)
			if c := p.held(); c < burst {
				t.Fatalf("cycle %d: capacity %d, below the recurring %d-item burst", i, c, burst)
			}
		}
	})
}

// TestQueueSteadyStateAllocationFree pins that a steady stream of pushes
// and takes reuses the queue's buffers instead of growing new ones.
func TestQueueSteadyStateAllocationFree(t *testing.T) {
	var q Queue[int]
	round := func() {
		for i := 0; i < 16; i++ {
			q.Push(i)
		}
		if got := q.Take(); len(got) != 16 {
			t.Fatalf("Take = %d items, want 16", len(got))
		}
	}
	round()
	round()
	if a := testing.AllocsPerRun(200, round); a != 0 {
		t.Fatalf("steady-state push+take allocates %.2f times per round, want 0", a)
	}
}
