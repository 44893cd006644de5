package engine

import (
	"fmt"
	"sync"
)

// Pipelined group commit. With a journal attached the writer never
// waits for the disk: it applies an operation, appends its record(s)
// and hands the operation's ack to the committer goroutine, then moves
// on to plan and append the next operations. The committer takes every
// ack whose barrier is owed, makes their records durable with one
// Journal.Barrier — the engine's only Barrier call site — and only then
// releases them. Work therefore overlaps the fsync in flight, and
// operations that pile up behind it share the next one: group commit
// across callers with no window, timer or wait. An ack is released only
// by a barrier that started after its records were appended: "acked
// implies logged".

// ack is the part of a writer operation (wop) or commit ticket the
// writer and the committer share. The writer fills owes/admitted while
// the operation runs, the committer fills jerr, and the send on done —
// by whichever of the two releases the caller — is the last touch.
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

// committer holds the acks between append and barrier: the queue the
// writer fills and the committer goroutine (commitLoop) drains.
type committer struct {
	mu     sync.Mutex
	wake   *sync.Cond
	owed   []*ack // appended, barrier owed; in append order
	closed bool   // the writer has exited: drain and stop
}

func newCommitter() *committer {
	c := &committer{}
	c.wake = sync.NewCond(&c.mu)
	return c
}

// put queues acks whose records are appended. It never waits for the
// committer's barrier.
func (c *committer) put(acks []*ack) {
	c.mu.Lock()
	c.owed = append(c.owed, acks...)
	c.mu.Unlock()
	c.wake.Signal()
}

// take waits for owed acks and returns all of them, leaving buf (the
// previous batch, emptied) as the queue's storage. It returns an empty
// batch once the writer has exited and nothing is owed.
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

// stop tells the committer the writer has exited.
func (c *committer) stop() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.wake.Signal()
}

// settle runs on the writer after an operation's writer-side work: an
// operation that appended nothing acks at once; one that did is staged
// for the committer (see handOff).
func (e *Engine) settle(a *ack) {
	if !a.owes {
		a.done <- struct{}{}
		return
	}
	e.staged = append(e.staged, a)
}

// handOff passes the acks staged by one writer iteration — one
// operation, or a whole commit epoch — to the committer in one step,
// so they share a barrier. It never blocks on the committer's disk
// wait.
func (e *Engine) handOff() {
	if len(e.staged) == 0 {
		return
	}
	e.com.put(e.staged)
	clear(e.staged)
	e.staged = e.staged[:0]
}

// commitLoop is the committer goroutine. It closes e.done once the
// writer has exited and every owed ack has been released, so Close
// returns with no caller left waiting.
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
// on the writer, through the ordinary ops channel, before any of the
// acks is released — a caller told ErrDurability finds its request
// gone. Departures and maintenance cannot be un-applied; their state
// change stands, as for a failed append. Operations appended after the
// batch fail on their own: a wal.Log's error is sticky.
func (e *Engine) failBatch(batch []*ack, err error) {
	jerr := fmt.Errorf("%w: %v", ErrDurability, err)
	for _, a := range batch {
		a.jerr = jerr
	}
	// ErrClosed here means the writer is gone and so is the state.
	_ = e.exec(func() {
		for i := len(batch) - 1; i >= 0; i-- {
			if a := batch[i]; a.admitted {
				e.unwind(a.admittedID)
			}
		}
	})
}
