package core

import (
	"sync"

	"repro/internal/oodb"
)

// PropagationPolicy bounds WHEN database updates are propagated to
// the IRS index structures (Section 4.6): immediately after each
// update, before the next information-need query, or when the
// application says so (with queries still forcing a pending flush).
type PropagationPolicy uint8

// Propagation policies.
const (
	// PropagateOnQuery defers propagation until the next IRS query
	// (alternative (2): "After a query is issued the index
	// structures are updated before the query's evaluation").
	PropagateOnQuery PropagationPolicy = iota
	// PropagateImmediately propagates after every committed update
	// (alternative (1): costly "if the number of updates is high as
	// compared to the number of information-need queries").
	PropagateImmediately
	// PropagateManually leaves propagation to the application
	// (e.g. in low-load periods); a query with propagation pending
	// still forces it.
	PropagateManually
	// PropagateAsync hands propagation to a per-collection background
	// flusher: logged updates are group-committed shortly after they
	// arrive (coalescing within a small window), so callers never wait
	// for index maintenance and queries rarely find a backlog. Like
	// the deferred policies, a query with propagation still pending
	// forces the flush first, so results are always current.
	PropagateAsync
)

func (p PropagationPolicy) String() string {
	switch p {
	case PropagateImmediately:
		return "immediate"
	case PropagateOnQuery:
		return "on-query"
	case PropagateManually:
		return "manual"
	case PropagateAsync:
		return "async"
	}
	return "?"
}

// pendingKind classifies a logged operation.
type pendingKind uint8

const (
	pendingCreate pendingKind = iota + 1
	pendingModify
	pendingDelete
)

// pendingOp is one entry of the drained log.
type pendingOp struct {
	oid  oodb.OID
	kind pendingKind
}

// updateLog records relevant database operations between flushes and
// cancels out operations that annul each other — "with some
// operation sequences, operations cancel out each other's effect.
// For instance, consider the deletion of a text object that has just
// been generated. In our implementation, database operations are
// recorded to avoid unnecessary update propagations" (Section 4.6).
//
// Merge rules per object:
//
//	create + modify  -> create          (fresh text is read anyway)
//	create + delete  -> delete          (the paper's example, see add)
//	modify + modify  -> modify          (collapsed)
//	modify + delete  -> delete
//	modify + create  -> create          (hooks of two transactions out of order)
//	delete + any     -> delete          (OIDs are never reused)
type updateLog struct {
	mu    sync.Mutex
	ops   map[oodb.OID]pendingKind
	order []oodb.OID
	// seq counts accepted operations; drain reports the high-water
	// mark it emptied through, giving the flush pipeline its ingest
	// watermark (an op is "applied" once a drain covering its seq has
	// committed — cancelled ops are applied trivially).
	seq uint64
}

func newUpdateLog() *updateLog {
	return &updateLog{ops: make(map[oodb.OID]pendingKind)}
}

// add merges one operation into the log, updating cancellation
// statistics.
func (l *updateLog) add(oid oodb.OID, kind pendingKind, stats *Stats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	stats.OpsLogged.Add(1)
	l.seq++
	prev, exists := l.ops[oid]
	if !exists {
		l.ops[oid] = kind
		l.order = append(l.order, oid)
		return
	}
	stats.OpsCancelled.Add(1)
	switch {
	case prev == pendingDelete:
		// A hook of a concurrent transaction firing after the delete's:
		// the object is gone for good, the straggler is moot.
	case kind == pendingDelete:
		// The pending modify became moot, or — generated then deleted
		// before propagation — the pending create vanishes and nothing
		// gets indexed. The delete itself stays even then (a flush skips
		// it when the object is unrepresented): a full specification
		// re-run in flight between the two may have admitted the object
		// from the extent already, and cancelling both would leave that
		// ghost in the index for good.
		l.ops[oid] = pendingDelete
	case kind == pendingCreate:
		// The create's hook overtaken by a later transaction's modify.
		l.ops[oid] = pendingCreate
	default:
		// A modify absorbed by the pending create (fresh text is read
		// anyway) or collapsed into the pending modify.
	}
}

// pending reports whether the log holds anything.
func (l *updateLog) pending() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops) > 0
}

// size returns the number of distinct pending objects.
func (l *updateLog) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops)
}

// lastSeq returns the sequence number of the last accepted operation
// — the collection's ingest watermark.
func (l *updateLog) lastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// seed advances the sequence counter to at least seq. The coupling
// calls it on restart with the watermark recovered from the WAL, so
// operations accepted after recovery sequence strictly after the
// replayed ones.
func (l *updateLog) seed(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.seq {
		l.seq = seq
	}
}

// drain atomically empties the log, returning the surviving
// operations — creations included: they are the delta the flush admits
// new members from — in first-logged order, and the watermark the
// drain empties through.
func (l *updateLog) drain() ([]pendingOp, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ops := make([]pendingOp, 0, len(l.ops))
	for _, oid := range l.order {
		if kind, ok := l.ops[oid]; ok { // !ok: cancelled
			ops = append(ops, pendingOp{oid: oid, kind: kind})
		}
	}
	l.ops = make(map[oodb.OID]pendingKind)
	l.order = nil
	return ops, l.seq
}
