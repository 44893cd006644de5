package engine

import (
	"fmt"
	"sync"
)

// Pipelined group commit. With a journal attached the lock holder never
// waits for the disk: it applies an operation, appends its record(s),
// puts the operation's ack to the committer goroutine and frees the
// writer lock, then waits for the ack while the next caller commits and
// appends. The committer takes every ack whose barrier is owed, makes
// their records durable with one Journal.Barrier — the engine's only
// Barrier call site — and only then releases them. Work therefore
// overlaps the fsync in flight, and operations that pile up behind it
// share the next one: group commit across callers with no window, timer
// or wait. An ack is released only by a barrier that started after its
// records were appended: "acked implies logged".

// ack is the part of a journaled operation the lock holder and the
// committer share. The holder fills owes/admitted while the operation
// runs (see exec); for an ack that owes a barrier the committer fills
// jerr, and its send on done is the last touch.
type ack struct {
	done chan struct{}
	// owes: a record of this operation was appended, so its ack waits
	// for a barrier.
	owes bool
	// admitted: the operation committed and journaled request
	// admittedID — the admission to unwind should that barrier fail.
	admitted   bool
	admittedID int
	// jerr is the ErrDurability verdict of a failed barrier.
	jerr error
}

// ackPool recycles the acks of journaled operations (see exec) with
// their buffered done channels.
var ackPool = sync.Pool{New: func() any { return &ack{done: make(chan struct{}, 1)} }}

// committer holds the acks between append and barrier: the queue lock
// holders fill and the committer goroutine (commitLoop) drains.
type committer struct {
	mu     sync.Mutex
	wake   *sync.Cond
	owed   []*ack // appended, barrier owed; in append order
	closed bool   // the engine is closed: drain and stop
}

func newCommitter() *committer {
	c := &committer{}
	c.wake = sync.NewCond(&c.mu)
	return c
}

// put queues the ack of an operation whose records are appended. The
// lock holder calls it before freeing the writer lock, so acks queue in
// append order. It never waits for the committer's barrier.
func (c *committer) put(a *ack) {
	c.mu.Lock()
	c.owed = append(c.owed, a)
	c.mu.Unlock()
	c.wake.Signal()
}

// take waits for owed acks and returns all of them, leaving buf (the
// previous batch, emptied) as the queue's storage. It returns an empty
// batch once the engine is closed and nothing is owed.
func (c *committer) take(buf []*ack) []*ack {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.owed) == 0 && !c.closed {
		c.wake.Wait()
	}
	batch := c.owed
	c.owed = buf[:0]
	return batch
}

// stop tells the committer the engine is closed.
func (c *committer) stop() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.wake.Signal()
}

// commitLoop is the committer goroutine. It closes e.done once Close has
// stopped it and every owed ack has been released, so Close returns with
// no caller left waiting.
func (e *Engine) commitLoop() {
	defer close(e.done)
	var batch []*ack
	for {
		if batch = e.com.take(batch); len(batch) == 0 {
			return
		}
		if err := e.journal.Barrier(); err != nil {
			e.failBatch(batch, err)
		}
		for i, a := range batch {
			batch[i] = nil
			a.done <- struct{}{}
		}
	}
}

// failBatch handles a failed barrier: none of the batch's records is
// known durable, so every operation it covered fails with
// ErrDurability. Admissions are unwound (departed again, newest first)
// under the writer lock, like any other operation, before any of the
// acks is released — a caller told ErrDurability finds its request
// gone. Departures and maintenance cannot be un-applied; their state
// change stands, as for a failed append. Operations appended after the
// batch fail on their own: a wal.Log's error is sticky.
func (e *Engine) failBatch(batch []*ack, err error) {
	jerr := fmt.Errorf("%w: %v", ErrDurability, err)
	for _, a := range batch {
		a.jerr = jerr
	}
	// ErrClosed here means Close came first: like every admission at
	// Close, the batch's admissions stay allocated.
	_ = e.exec(func() {
		for i := len(batch) - 1; i >= 0; i-- {
			if a := batch[i]; a.admitted {
				e.unwind(a.admittedID)
			}
		}
	})
}
