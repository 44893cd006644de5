package wal

import (
	"nfvmcast/internal/core"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
)

// Journal adapts a Log to the engine's durability hook: each outcome
// becomes one appended record (on the engine's writer), and Barrier
// (on the engine's committer, overlapping later appends) maps straight
// to the log's group-commit fsync. Construction order resolves the
// chicken-and-egg between log and engine — open the log, build the
// engine with the journal attached, then Recover:
//
//	log, _ := wal.Open(dir, wal.Options{})
//	eng := engine.NewWith(nw, planner, engine.WithJournal(log.Journal()))
//	stats, _ := log.Recover(eng)
//
// Replay is safe with the journal already attached because the
// engine's Restore surface never journals — replayed records are
// already in the log.
type Journal struct {
	l *Log
}

var _ engine.Journal = (*Journal)(nil)

// Journal returns the log's engine.Journal adapter.
func (l *Log) Journal() *Journal { return &Journal{l: l} }

// Admitted records a committed admission.
func (j *Journal) Admitted(req *multicast.Request, sol *core.Solution) error {
	_, err := j.l.Append(&Record{
		Type:    obs.Admitted,
		Request: req.ID,
		Req:     encodeRequest(req),
		Sol:     encodeSolution(sol),
	})
	return err
}

// Departed records a released session.
func (j *Journal) Departed(reqID int) error {
	_, err := j.l.Append(&Record{Type: obs.Departed, Request: reqID})
	return err
}

// Repaired records a session re-realised by sol.
func (j *Journal) Repaired(reqID int, sol *core.Solution) error {
	_, err := j.l.Append(&Record{
		Type:    obs.Repaired,
		Request: reqID,
		Req:     encodeRequest(sol.Request),
		Sol:     encodeSolution(sol),
	})
	return err
}

// Shed records a session dropped by the recovery ladder.
func (j *Journal) Shed(reqID int) error {
	_, err := j.l.Append(&Record{Type: obs.Shed, Request: reqID})
	return err
}

// MutationsApplied records an accepted maintenance batch.
func (j *Journal) MutationsApplied(muts []engine.Mutation) error {
	_, err := j.l.Append(&Record{Type: obs.MutationApplied, Muts: encodeMutations(muts)})
	return err
}

// Barrier makes everything appended before the call durable (one
// fsync, outside the log's mutex).
func (j *Journal) Barrier() error { return j.l.Barrier() }
