package compress

import (
	"sync"
	"testing"

	"blinktree/internal/base"
	"blinktree/internal/blink"
)

func ev(id base.PageID, level int, high base.Key) blink.UnderfullEvent {
	return blink.UnderfullEvent{ID: id, Level: level, High: base.FiniteBound(high)}
}

func TestQueueFIFOWithinLevel(t *testing.T) {
	q := NewQueue()
	q.Offer(ev(1, 0, 10), true)
	q.Offer(ev(2, 0, 20), true)
	q.Offer(ev(3, 0, 30), true)
	for _, want := range []base.PageID{1, 2, 3} {
		got, ok := q.TryPop()
		if !ok || got.ID != want {
			t.Fatalf("pop = (%v,%v), want id %d", got.ID, ok, want)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestQueueHigherLevelFirst(t *testing.T) {
	q := NewQueue()
	q.Offer(ev(1, 0, 10), true)
	q.Offer(ev(2, 2, 20), true)
	q.Offer(ev(3, 1, 30), true)
	order := []base.PageID{2, 3, 1} // footnote 17: higher level first
	for _, want := range order {
		got, ok := q.TryPop()
		if !ok || got.ID != want {
			t.Fatalf("pop = (%v,%v), want %d", got.ID, ok, want)
		}
	}
}

func TestQueueDedupAndUpdate(t *testing.T) {
	q := NewQueue()
	q.Offer(ev(1, 0, 10), true)
	q.Offer(ev(1, 0, 99), true) // update=true: high refreshed
	if q.Len() != 1 {
		t.Fatalf("Len = %d after dup offer", q.Len())
	}
	got, _ := q.TryPop()
	if !got.High.Equal(base.FiniteBound(99)) {
		t.Fatalf("high = %v, want updated 99", got.High)
	}

	q.Offer(ev(2, 0, 10), true)
	q.Offer(ev(2, 0, 55), false) // update=false: untouched
	got, _ = q.TryPop()
	if !got.High.Equal(base.FiniteBound(10)) {
		t.Fatalf("high = %v, want original 10", got.High)
	}
}

func TestQueueRemove(t *testing.T) {
	q := NewQueue()
	q.Offer(ev(1, 0, 10), true)
	q.Offer(ev(2, 0, 20), true)
	q.Remove(1)
	if q.Len() != 1 {
		t.Fatalf("Len = %d after remove", q.Len())
	}
	got, ok := q.TryPop()
	if !ok || got.ID != 2 {
		t.Fatalf("pop = (%v,%v)", got.ID, ok)
	}
	q.Remove(99) // absent: no-op
}

// blockingPop is the workers' loop: wait for an entry, then race the
// other consumers for it.
func blockingPop(q *Queue) (blink.UnderfullEvent, bool) {
	for q.Wait() {
		if e, ok := q.TryPop(); ok {
			return e, true
		}
	}
	return blink.UnderfullEvent{}, false
}

func TestQueueCloseUnblocksPop(t *testing.T) {
	q := NewQueue()
	done := make(chan bool)
	go func() {
		_, ok := blockingPop(q)
		done <- ok
	}()
	q.Close()
	if ok := <-done; ok {
		t.Fatal("Pop on closed empty queue returned ok")
	}
	q.Offer(ev(1, 0, 1), true) // dropped after close
	if q.Len() != 0 {
		t.Fatal("Offer after Close enqueued")
	}
}

func TestQueuePopBlocksUntilOffer(t *testing.T) {
	q := NewQueue()
	got := make(chan blink.UnderfullEvent)
	go func() {
		e, ok := blockingPop(q)
		if ok {
			got <- e
		}
	}()
	q.Offer(ev(7, 0, 70), true)
	e := <-got
	if e.ID != 7 {
		t.Fatalf("popped %d", e.ID)
	}
	q.Close()
}

func TestQueueConcurrentOfferPop(t *testing.T) {
	q := NewQueue()
	const producers, perProducer = 4, 200
	var wg sync.WaitGroup
	seen := make(chan base.PageID, producers*perProducer)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				e, ok := blockingPop(q)
				if !ok {
					return
				}
				seen <- e.ID
			}
		}()
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProducer; i++ {
				q.Offer(ev(base.PageID(p*perProducer+i+1), i%3, 1), true)
			}
		}(p)
	}
	pwg.Wait()
	// Wait for drain, then close.
	for q.Len() > 0 {
	}
	q.Close()
	wg.Wait()
	close(seen)
	ids := map[base.PageID]bool{}
	for id := range seen {
		if ids[id] {
			t.Fatalf("id %d popped twice", id)
		}
		ids[id] = true
	}
	if len(ids) != producers*perProducer {
		t.Fatalf("popped %d unique ids, want %d", len(ids), producers*perProducer)
	}
	st := q.Stats()
	if st.Offered != producers*perProducer || st.Popped != producers*perProducer {
		t.Fatalf("stats: %+v", st)
	}
}
