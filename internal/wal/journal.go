package wal

import (
	"fmt"

	"nfvmcast/internal/engine"
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
//	eng := engine.New(nw, planner, engine.Options{Journal: log.Journal()})
//	stats, _ := log.Recover(eng)
//
// Replay is safe with the journal already attached because the
// engine's Replay never journals — replayed records are already in the
// log.
type Journal struct {
	l *Log
}

var _ engine.Journal = (*Journal)(nil)

// Journal returns the log's engine.Journal adapter.
func (l *Log) Journal() *Journal { return &Journal{l: l} }

// Append records one outcome as one log record.
func (j *Journal) Append(o engine.Outcome) error {
	rec, err := encodeOutcome(o)
	if err == nil {
		_, err = j.l.Append(rec)
	}
	return err
}

// Barrier makes everything appended before the call durable (one
// fsync, outside the log's mutex).
func (j *Journal) Barrier() error { return j.l.Barrier() }

// encodeOutcome translates an engine outcome into its record. Admitted
// and repaired records carry the request and solution, departed and
// shed records the request ID, mutation_applied records the batch.
func encodeOutcome(o engine.Outcome) (*Record, error) {
	rec := &Record{Request: o.ReqID}
	switch o.Kind {
	case engine.Admitted, engine.Repaired:
		rec.Type = obs.Admitted
		if o.Kind == engine.Repaired {
			rec.Type = obs.Repaired
		}
		rec.Req, rec.Sol = encodeRequest(o.Solution.Request), encodeSolution(o.Solution)
	case engine.Departed:
		rec.Type = obs.Departed
	case engine.Shed:
		rec.Type = obs.Shed
	case engine.MutationsApplied:
		rec.Type, rec.Muts = obs.MutationApplied, encodeMutations(o.Mutations)
	default:
		return nil, fmt.Errorf("wal: outcome kind %d has no record", o.Kind)
	}
	return rec, nil
}

// decodeOutcome is the inverse of encodeOutcome.
func decodeOutcome(rec *Record) (engine.Outcome, error) {
	o := engine.Outcome{ReqID: rec.Request}
	switch rec.Type {
	case obs.Admitted, obs.Repaired:
		req, err := rec.Req.Decode()
		if err != nil {
			return o, err
		}
		o.Kind, o.Solution = engine.Repaired, rec.Sol.Decode(req)
		if rec.Type == obs.Admitted {
			o.Kind, o.ReqID = engine.Admitted, req.ID
		}
	case obs.Departed:
		o.Kind = engine.Departed
	case obs.Shed:
		o.Kind = engine.Shed
	case obs.MutationApplied:
		muts, err := decodeMutations(rec.Muts)
		if err != nil {
			return o, err
		}
		o.Kind, o.Mutations = engine.MutationsApplied, muts
	default:
		// validate() in the codec rejects unknown types; reaching here
		// means the vocabulary grew without a replay arm.
		return o, fmt.Errorf("unhandled record type %q", rec.Type)
	}
	return o, nil
}
