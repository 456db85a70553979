package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/derive"
	"repro/internal/irs"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/vql"
)

// Stage histograms of the flush pipeline, shared across collections
// (obs.Default is the process registry /metrics scrapes): analyze
// runs outside every lock, commit_batch is the index commit-lock
// hold — the split PR 3 introduced as counters, generalized onto
// latency distributions.
var (
	flushAnalyzeHist = obs.Default.Histogram("mmf_stage_seconds", "stage", "analyze")
	flushCommitHist  = obs.Default.Histogram("mmf_stage_seconds", "stage", "commit_batch")
)

// Collection is the runtime face of one COLLECTION object: the
// database-side encapsulation of exactly one IRS collection
// (Section 4.2). Its methods mirror the paper's interface:
// IndexObjects, GetIRSResult, FindIRSValue, the update methods (fed
// by the database hook) and Flush.
type Collection struct {
	c         *Coupling
	oid       oodb.OID
	name      string
	specQuery string
	textMode  int
	irsColl   *irs.Collection

	// spec is specQuery parsed once. deltaClass is its FROM class when
	// the query's shape lets a flush decide membership of a new object
	// from that object alone (see deltaClassOf); "" keeps the full
	// specification re-run on every create-bearing flush.
	spec       *vql.Query
	deltaClass string
	// reconciled is set by the first full specification run since open
	// (a flush's, or IndexObjects/Reindex). Until then even a delta-able
	// collection's create-bearing flush re-runs the full query: the
	// update log is volatile, so members committed to the database but
	// not flushed before a crash are in no log after reopen, and that
	// one run re-admits them.
	reconciled atomic.Bool

	// mu guards the exchangeable configuration slots (deriver,
	// policy, textFn); queries read them while applications may
	// exchange them at runtime (Section 6's "different solutions with
	// the same framework in parallel").
	mu      sync.RWMutex
	deriver derive.Scheme
	policy  PropagationPolicy
	textFn  func(oid oodb.OID, mode int) string

	buffer    *resultBuffer
	log       *updateLog
	stats     Stats
	bufferOff atomic.Bool
	// epoch advances whenever a result served from this collection
	// could change: logged updates awaiting propagation, (re)indexing,
	// flushes and configuration exchanges. Serving layers key caches
	// on Epoch so PropagateOnQuery stays correct behind them.
	epoch atomic.Uint64

	// flushMu serializes whole flush pipelines (drain → stage →
	// analyze → commit). Serialization is what makes Drain a plain
	// Flush: once it holds flushMu, every earlier drain has committed.
	flushMu sync.Mutex
	// applied is the watermark of logged operations reflected in the
	// IRS index (monotonic; compared against updateLog.seq).
	applied atomic.Uint64
	// lostOps is set when a flush drained operations and then failed:
	// the batch has no rollback and the log no longer holds them, so
	// those updates are gone until a Reindex resynchronizes. Drain
	// refuses to report success while it is set.
	lostOps atomic.Bool

	// Async-ingest machinery (PropagateAsync): the background flusher
	// and its tuning, all guarded by mu (ConfigureAsync may retune at
	// runtime). The flusher moves its group-commit window inside
	// [asyncCoalesceMin, asyncCoalesceMax] with observed arrival rate
	// and queue depth; the current window lives in coalesceNanos
	// (atomic: read by /stats off the lock).
	flusher          *flusher
	asyncMaxPending  int           // backlog bound; <=0 unbounded
	asyncCoalesceMin time.Duration // window floor (idle latency)
	asyncCoalesceMax time.Duration // window ceiling (burst batching)
	coalesceNanos    atomic.Int64  // current window

	errMu        sync.Mutex
	lastFlushErr string

	// degraded flips when the write-ahead log refuses an append or
	// fsync: the index must not run ahead of the durable log, so the
	// collection stops propagating (reads keep serving the last
	// committed state) until Reindex rotates a fresh log or the process
	// restarts. degradedReason rides under errMu.
	degraded       atomic.Bool
	degradedReason string
}

// Default async-ingest tuning (see Options.AsyncMaxPending /
// Options.AsyncCoalesceMin). The window bounds span the old
// fixed 2ms constant: an idle collection flushes after 250µs (8×
// lower added latency than the fixed window), a bursty one widens to
// 8ms for 4× larger group commits.
const (
	defaultAsyncMaxPending  = 4096
	defaultAsyncCoalesceMin = 250 * time.Microsecond
	defaultAsyncCoalesceMax = 8 * time.Millisecond
)

// Stats counts coupling activity; every field is maintained with
// atomic increments and read via Snapshot.
type Stats struct {
	IRSSearches     atomic.Int64 // queries actually evaluated by the IRS
	BufferHits      atomic.Int64
	BufferMisses    atomic.Int64
	Derivations     atomic.Int64 // deriveIRSValue invocations
	DefaultValues   atomic.Int64 // represented but unscored objects
	OpsLogged       atomic.Int64
	OpsCancelled    atomic.Int64 // ops removed by log cancellation
	OpsApplied      atomic.Int64
	Flushes         atomic.Int64
	ForcedFlushes   atomic.Int64 // flushes forced by a pending query
	Indexed         atomic.Int64
	FlushErrors     atomic.Int64 // flushes that failed on a path with no caller to report to
	FlushRecoveries atomic.Int64 // failed commit batches reconverged by WAL reapply
	AsyncFlushes    atomic.Int64 // flushes initiated by the background flusher
	GroupCommits    atomic.Int64 // commit batches that applied at least one op
	GroupedOps      atomic.Int64 // ops across those batches (avg = group size)
	AnalyzeNanos    atomic.Int64 // time in the parallel analyze stage (no locks held)
	CommitNanos     atomic.Int64 // time inside the index commit batch (commit lock held)
	SpecReruns      atomic.Int64 // flushes that re-ran the specification query over the extent
	DeltaAdmitted   atomic.Int64 // new members staged from logged creations, no extent scan
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	IRSSearches, BufferHits, BufferMisses int64
	Derivations, DefaultValues            int64
	OpsLogged, OpsCancelled, OpsApplied   int64
	Flushes, ForcedFlushes, Indexed       int64
	FlushErrors, FlushRecoveries          int64
	AsyncFlushes                          int64
	GroupCommits, GroupedOps              int64
	AnalyzeNanos, CommitNanos             int64
	SpecReruns, DeltaAdmitted             int64
}

// Snapshot returns current counter values.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		IRSSearches: s.IRSSearches.Load(), BufferHits: s.BufferHits.Load(),
		BufferMisses: s.BufferMisses.Load(), Derivations: s.Derivations.Load(),
		DefaultValues: s.DefaultValues.Load(), OpsLogged: s.OpsLogged.Load(),
		OpsCancelled: s.OpsCancelled.Load(), OpsApplied: s.OpsApplied.Load(),
		Flushes: s.Flushes.Load(), ForcedFlushes: s.ForcedFlushes.Load(),
		Indexed: s.Indexed.Load(), FlushErrors: s.FlushErrors.Load(),
		FlushRecoveries: s.FlushRecoveries.Load(),
		AsyncFlushes:    s.AsyncFlushes.Load(), GroupCommits: s.GroupCommits.Load(),
		GroupedOps: s.GroupedOps.Load(), AnalyzeNanos: s.AnalyzeNanos.Load(),
		CommitNanos: s.CommitNanos.Load(), SpecReruns: s.SpecReruns.Load(),
		DeltaAdmitted: s.DeltaAdmitted.Load(),
	}
}

func newCollection(c *Coupling, oid oodb.OID, name, specQuery string, spec *vql.Query, textMode int,
	irsColl *irs.Collection, deriver derive.Scheme, policy PropagationPolicy) *Collection {
	col := &Collection{
		c:          c,
		oid:        oid,
		name:       name,
		specQuery:  specQuery,
		spec:       spec,
		deltaClass: deltaClassOf(spec),
		textMode:   textMode,
		irsColl:    irsColl,
		deriver:    deriver,
		policy:     policy,
		log:        newUpdateLog(),
	}
	col.setAsyncTuning(0, 0, 0)
	col.buffer = newResultBuffer(col)
	// When the engine attached a write-ahead log, ride the group fsync
	// on this collection's commit-coalescing window and surface failed
	// background fsyncs as degradation (satisfying write-ahead: the
	// index never runs ahead of the durable log).
	irsColl.SetWALGroupWindow(col.CoalesceWindow)
	irsColl.SetWALSyncErrorHook(func(err error) {
		col.setDegraded(fmt.Errorf("core: wal group fsync for %q: %w", name, err))
	})
	return col
}

// OID returns the COLLECTION object's identifier (what VQL queries
// pass as the collection argument).
func (col *Collection) OID() oodb.OID { return col.oid }

// Name returns the collection name.
func (col *Collection) Name() string { return col.name }

// SpecQuery returns the specification query.
func (col *Collection) SpecQuery() string { return col.specQuery }

// TextMode returns the getText mode used for representations.
func (col *Collection) TextMode() int { return col.textMode }

// Deriver returns the derivation scheme.
func (col *Collection) Deriver() derive.Scheme {
	col.mu.RLock()
	defer col.mu.RUnlock()
	return col.deriver
}

// SetDeriver exchanges the derivation scheme ("It is possible to
// realize different solutions with the same framework in parallel
// and to compare the results", Section 6).
func (col *Collection) SetDeriver(s derive.Scheme) {
	col.mu.Lock()
	col.deriver = s
	col.mu.Unlock()
	col.bumpEpoch()
}

// Policy returns the propagation policy.
func (col *Collection) Policy() PropagationPolicy {
	col.mu.RLock()
	defer col.mu.RUnlock()
	return col.policy
}

// SetPolicy changes the propagation policy, starting (or stopping)
// the background flusher as the collection moves into (or out of)
// PropagateAsync.
func (col *Collection) SetPolicy(p PropagationPolicy) {
	col.mu.Lock()
	col.policy = p
	col.mu.Unlock()
	if p == PropagateAsync {
		col.startFlusher()
		col.kickFlusher() // pick up any backlog logged under the old policy
	} else {
		col.stopFlusher()
	}
}

// SetTextFunc installs (or clears, with nil) the application-defined
// getText override; see Options.TextFunc.
func (col *Collection) SetTextFunc(fn func(oid oodb.OID, mode int) string) {
	col.mu.Lock()
	col.textFn = fn
	col.mu.Unlock()
	col.bumpEpoch()
}

// text returns the representation handed to the IRS for oid.
func (col *Collection) text(oid oodb.OID) string {
	col.mu.RLock()
	fn := col.textFn
	col.mu.RUnlock()
	if fn != nil {
		return fn(oid, col.textMode)
	}
	return col.c.store.Text(oid, col.textMode)
}

// bumpEpoch advances the collection's (and the coupling's) change
// counter.
func (col *Collection) bumpEpoch() {
	col.epoch.Add(1)
	col.c.epoch.Add(1)
}

// Epoch returns a counter that advances whenever results served from
// this collection could differ from previously returned ones. It
// folds in the IRS index version and model generation, so direct
// mutations through IRS() (AddDocument, SetModel, …) are covered
// too. Any cache keyed on (query, Epoch) therefore honours the
// propagation policies: a logged update under PropagateOnQuery
// advances the epoch immediately, before the flush that the next
// query will force.
func (col *Collection) Epoch() uint64 {
	return col.epoch.Load() + col.irsColl.Index().Version() + col.irsColl.ModelGeneration()
}

// Stats exposes the activity counters.
func (col *Collection) Stats() *Stats { return &col.stats }

// IRS returns the underlying IRS collection (experiments inspect
// index sizes through it).
func (col *Collection) IRS() *irs.Collection { return col.irsColl }

// DocCount returns the number of IRS documents in the collection.
func (col *Collection) DocCount() int { return col.irsColl.DocCount() }

// Represented reports whether obj has an IRS document in this
// collection.
func (col *Collection) Represented(obj oodb.OID) bool {
	return col.irsColl.HasDoc(obj.String())
}

// defaultValue is the retrieval value of a represented document that
// the IRS did not score for a query: the belief-based paradigms
// (inference net, passage) assign their default belief to absent
// evidence (an explicitly configured 0.0 included — the belief is a
// pointer precisely so zero is expressible), other paradigms zero.
func (col *Collection) defaultValue() float64 {
	switch m := col.irsColl.Model().(type) {
	case irs.InferenceNet:
		if m.DefaultBelief != nil {
			return *m.DefaultBelief
		}
		return 0.4
	case irs.PassageModel:
		if m.DefaultBelief != nil {
			return *m.DefaultBelief
		}
		return 0.4
	}
	return 0
}

// deltaClassOf classifies a specification query by shape. With a
// single FROM binding whose ACCESS list is that variable, whether an
// object is a member depends on the object alone — its class, and the
// WHERE clause with the variable bound to it — so update propagation
// can admit new members from the logged creations; the FROM class is
// returned. Any other shape (a join, an ACCESS expression that
// navigates away from the variable) can change membership through
// other objects and returns "": those collections re-run the full
// query.
func deltaClassOf(q *vql.Query) string {
	if len(q.From) != 1 || len(q.Access) != 1 {
		return ""
	}
	if v, ok := q.Access[0].(*vql.Ident); !ok || v.Name != q.From[0].Var {
		return ""
	}
	return q.From[0].Class
}

// relevant reports whether creating or deleting an instance of class
// can change the collection's membership: on a delta-able collection
// only (sub)instances of the FROM class, otherwise anything.
func (col *Collection) relevant(class string) bool {
	return col.deltaClass == "" || col.c.db.IsA(class, col.deltaClass)
}

// specResult evaluates the specification query over the class extents
// and returns the selected object OIDs.
func (col *Collection) specResult() ([]oodb.OID, error) {
	return col.specRows(col.c.ev.PlanQuery(col.spec, vql.StrategyAuto))
}

// specResultOver evaluates the specification query of a delta-able
// collection with its FROM variable bound to oids, not the extent.
func (col *Collection) specResultOver(oids []oodb.OID) ([]oodb.OID, error) {
	return col.specRows(col.c.ev.PlanQueryOver(col.spec, vql.StrategyAuto, oids))
}

// specRows executes a plan of the specification query. Every result
// row must be a single object — "The result is a set of IRSObjects"
// (Section 4.2).
func (col *Collection) specRows(plan *vql.Plan, err error) ([]oodb.OID, error) {
	var rs *vql.ResultSet
	if err == nil {
		rs, err = col.c.ev.Execute(plan)
	}
	if err != nil {
		return nil, fmt.Errorf("core: specification query of %q: %w", col.name, err)
	}
	var out []oodb.OID
	seen := make(map[oodb.OID]bool)
	for _, row := range rs.Rows {
		if len(row) != 1 || row[0].Kind != oodb.KindOID {
			return nil, fmt.Errorf("%w (collection %q)", ErrBadSpecQuery, col.name)
		}
		if !seen[row[0].Ref] {
			seen[row[0].Ref] = true
			out = append(out, row[0].Ref)
		}
	}
	return out, nil
}

// IndexObjects evaluates the specification query and indexes the
// textual representation of every selected object — the paper's
// indexObjects(specQuery, textMode). Re-invocation refreshes the
// text of already-represented objects. The result buffer is
// invalidated.
func (col *Collection) IndexObjects() (int, error) {
	oids, err := col.specResult()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, oid := range oids {
		text := col.text(oid)
		ext := oid.String()
		meta := map[string]string{"oid": ext, "mode": fmt.Sprint(col.textMode)}
		if col.irsColl.HasDoc(ext) {
			err = col.irsColl.UpdateDocument(ext, text, meta)
		} else {
			err = col.irsColl.AddDocument(ext, text, meta)
		}
		if err != nil {
			return n, err
		}
		n++
		col.stats.Indexed.Add(1)
	}
	col.reconciled.Store(true)
	col.buffer.invalidate()
	col.bumpEpoch()
	return n, nil
}

// Reindex fully resynchronizes the IRS collection with the current
// specification-query result: missing objects are added, represented
// objects refreshed, and objects no longer selected are removed.
func (col *Collection) Reindex() (added, updated, removed int, err error) {
	oids, err := col.specResult()
	if err != nil {
		return 0, 0, 0, err
	}
	want := make(map[string]oodb.OID, len(oids))
	for _, oid := range oids {
		want[oid.String()] = oid
	}
	for _, ext := range col.representedExtIDs() {
		if _, ok := want[ext]; !ok {
			if err := col.irsColl.DeleteDocument(ext); err != nil {
				return added, updated, removed, err
			}
			removed++
		}
	}
	for ext, oid := range want {
		text := col.text(oid)
		meta := map[string]string{"oid": ext, "mode": fmt.Sprint(col.textMode)}
		if col.irsColl.HasDoc(ext) {
			if err := col.irsColl.UpdateDocument(ext, text, meta); err != nil {
				return added, updated, removed, err
			}
			updated++
		} else {
			if err := col.irsColl.AddDocument(ext, text, meta); err != nil {
				return added, updated, removed, err
			}
			added++
		}
	}
	_, seq := col.log.drain() // everything is fresh; pending ops are moot
	col.storeApplied(seq)
	col.reconciled.Store(true)
	// The rebuilt state bypassed the log (direct index writes), so the
	// old log no longer describes a replayable tail: rotate it behind a
	// barrier at the new watermark. The snapshot that covers this state
	// is the next Save — until then recovery replays an empty tail onto
	// the previous snapshot, which a fresh Reindex reconverges.
	if err := col.irsColl.WALReset(seq); err != nil {
		err = fmt.Errorf("core: wal reset for %q: %w", col.name, err)
		col.setDegraded(err)
		return added, updated, removed, err
	}
	// A full resynchronization recovers anything a failed flush
	// dropped; the drain barrier is sound again, and a successfully
	// rotated log lifts WAL degradation.
	col.lostOps.Store(false)
	col.clearDegraded()
	col.buffer.invalidate()
	col.bumpEpoch()
	return added, updated, removed, nil
}

func (col *Collection) representedExtIDs() []string {
	ix := col.irsColl.Index()
	ids := ix.LiveDocIDs()
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if ext, ok := ix.ExtID(id); ok {
			out = append(out, ext)
		}
	}
	return out
}

// GetIRSResult submits the query to the IRS — or serves it from the
// persistent result buffer — and returns object OIDs with their
// retrieval values (the paper's getIRSResult dictionary
// ‖IRSObject → REAL‖). Pending update propagation is enforced first
// when the policy defers it (Section 4.6: "If ... an information-
// need query is issued with update propagation pending, propagation
// is enforced").
func (col *Collection) GetIRSResult(irsQuery string) (map[oodb.OID]float64, error) {
	node, err := irs.ParseQuery(irsQuery)
	if err != nil {
		return nil, err
	}
	return col.getIRSResultNode(node)
}

// beginIRSRead is the shared preamble of every buffered IRS read
// path: it enforces pending update propagation first when the policy
// defers it (Section 4.6), then consults the persistent result
// buffer. On a hit the buffered scores are returned (non-nil, hit
// counted). On a miss, scores is nil; when offerBack is set the miss
// is counted (BufferMisses means "a miss the caller will populate"),
// useBuffer reports whether the caller should offer its freshly
// evaluated result back to the buffer, and gen is the buffer
// generation observed *before* the evaluation — put discards results
// computed across an invalidation, so a flush racing the evaluation
// can never resurrect pre-flush scores. Callers that never populate
// the buffer (the top-k prefix path) pass offerBack false and skip
// both the miss count and the generation read. The caller must
// acquire its snapshot only after this returns, so the ranking
// reflects either the fully propagated state or (for flushes racing
// in from elsewhere) the fully unpropagated one — never a
// half-applied blend.
func (col *Collection) beginIRSRead(key string, offerBack bool) (scores map[oodb.OID]float64, useBuffer bool, gen uint64, err error) {
	if col.Policy() != PropagateImmediately && col.log.pending() && !col.degraded.Load() {
		// A degraded collection serves reads from the last committed
		// state instead of failing them — propagation is what the WAL
		// failure forbids, not retrieval.
		col.stats.ForcedFlushes.Add(1)
		if err := col.Flush(); err != nil {
			return nil, false, 0, err
		}
	}
	useBuffer = !col.bufferOff.Load() && offerBack
	if !col.bufferOff.Load() {
		if scores, ok := col.buffer.get(key); ok {
			col.stats.BufferHits.Add(1)
			return scores, true, 0, nil
		}
		if offerBack {
			col.stats.BufferMisses.Add(1)
			gen = col.buffer.generation()
		}
	}
	col.stats.IRSSearches.Add(1)
	return nil, useBuffer, gen, nil
}

func (col *Collection) getIRSResultNode(node *irs.Node) (map[oodb.OID]float64, error) {
	key := node.String()
	buffered, useBuffer, bufGen, err := col.beginIRSRead(key, true)
	if err != nil {
		return nil, err
	}
	if buffered != nil {
		return buffered, nil
	}
	snap := col.irsColl.Snapshot()
	results := col.irsColl.SearchNodeAt(snap, node)
	scores := make(map[oodb.OID]float64, len(results))
	for _, r := range results {
		oid, err := oodb.ParseOID(r.ExtID)
		if err != nil {
			return nil, fmt.Errorf("core: IRS returned foreign document id %q: %w", r.ExtID, err)
		}
		scores[oid] = r.Score
	}
	if useBuffer {
		col.buffer.put(key, scores, bufGen)
	}
	return scores, nil
}

// RankedValue pairs an object with its retrieval value; slices of it
// preserve rank order (value descending, ties by OID string), which a
// plain ‖IRSObject → REAL‖ dictionary cannot.
type RankedValue struct {
	OID   oodb.OID
	Value float64
}

// GetIRSResultTopK is the top-k variant of GetIRSResult: it returns
// only the k highest-ranked (object, value) pairs, in rank order.
// The prefix is exactly the first k entries of the full ranking under
// the deterministic tie-break (value descending, then OID), so
// serving layers can push their limit down instead of truncating a
// fully evaluated result. Like GetIRSResult it enforces pending
// update propagation first when the policy defers it, and it serves
// from the persistent result buffer when the full result is already
// buffered; a fresh top-k evaluation is NOT buffered (a k-prefix
// cannot answer later findIRSValue calls for arbitrary objects).
// k <= 0 ranks the full result.
func (col *Collection) GetIRSResultTopK(irsQuery string, k int) ([]RankedValue, error) {
	return col.GetIRSResultTopKTraced(irsQuery, k, nil)
}

// GetIRSResultTopKTraced is GetIRSResultTopK carrying a per-request
// trace context (nil-safe): it annotates result-buffer hit/miss and
// hands tr down to the IRS evaluator, which records stage spans and
// pruning attrs.
func (col *Collection) GetIRSResultTopKTraced(irsQuery string, k int, tr *obs.Trace) ([]RankedValue, error) {
	node, err := irs.ParseQuery(irsQuery)
	if err != nil {
		return nil, err
	}
	return col.getIRSResultNodeTopK(node, k, tr)
}

func (col *Collection) getIRSResultNodeTopK(node *irs.Node, k int, tr *obs.Trace) ([]RankedValue, error) {
	if k <= 0 {
		// Unlimited: this is the exhaustive result, so it goes through
		// (and populates) the buffered path like GetIRSResult.
		scores, err := col.getIRSResultNode(node)
		if err != nil {
			return nil, err
		}
		return rankScores(scores, 0), nil
	}
	// offerBack false: a k-prefix is never offered to the buffer, so
	// the miss counter and put-back generation are skipped.
	buffered, _, _, err := col.beginIRSRead(node.String(), false)
	if err != nil {
		return nil, err
	}
	if buffered != nil {
		tr.Attr("result_buffer", "hit")
		return rankScores(buffered, k), nil
	}
	tr.Attr("result_buffer", "miss")
	snap := col.irsColl.Snapshot()
	results := col.irsColl.SearchNodeTopKTracedAt(snap, node, k, tr)
	out := make([]RankedValue, 0, len(results))
	for _, r := range results {
		oid, err := oodb.ParseOID(r.ExtID)
		if err != nil {
			return nil, fmt.Errorf("core: IRS returned foreign document id %q: %w", r.ExtID, err)
		}
		out = append(out, RankedValue{OID: oid, Value: r.Score})
	}
	return out, nil
}

// rankScores orders a buffered score map (value descending, ties by
// OID string — the same order the IRS ranks in) and truncates to k
// (k <= 0: no truncation). For k below the result size it keeps a
// bounded best-k slice (O(n log k) comparisons, most candidates
// rejected on a single float compare) instead of sorting the whole
// map — the buffered-hit path must not reintroduce the full-sort
// cost the streaming top-k engine removes.
func rankScores(scores map[oodb.OID]float64, k int) []RankedValue {
	if k <= 0 || k >= len(scores) {
		out := make([]RankedValue, 0, len(scores))
		for oid, v := range scores {
			out = append(out, RankedValue{OID: oid, Value: v})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Value != out[j].Value {
				return out[i].Value > out[j].Value
			}
			return out[i].OID.String() < out[j].OID.String()
		})
		return out
	}
	type entry struct {
		rv  RankedValue
		ext string
	}
	// worse reports a ranking strictly after b (lower value, or tied
	// with a larger OID string).
	worse := func(a, b entry) bool {
		if a.rv.Value != b.rv.Value {
			return a.rv.Value < b.rv.Value
		}
		return a.ext > b.ext
	}
	best := make([]entry, 0, k) // sorted best-first
	for oid, v := range scores {
		if len(best) == k && v < best[len(best)-1].rv.Value {
			continue
		}
		e := entry{rv: RankedValue{OID: oid, Value: v}, ext: oid.String()}
		// First kept position ranking after e.
		lo, hi := 0, len(best)
		for lo < hi {
			mid := (lo + hi) / 2
			if worse(best[mid], e) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo == k {
			continue // tied the k-th on value but lost on OID
		}
		if len(best) < k {
			best = append(best, entry{})
		}
		copy(best[lo+1:], best[lo:len(best)-1])
		best[lo] = e
	}
	out := make([]RankedValue, len(best))
	for i := range best {
		out[i] = best[i].rv
	}
	return out
}

// FindIRSValue returns the IRS value of obj for the query,
// implementing the Figure 3 flow: buffered result → direct value for
// represented objects → deriveIRSValue for unrepresented ones.
func (col *Collection) FindIRSValue(irsQuery string, obj oodb.OID) (float64, error) {
	node, err := irs.ParseQuery(irsQuery)
	if err != nil {
		return 0, err
	}
	return col.findIRSValueNode(node, obj)
}

func (col *Collection) findIRSValueNode(node *irs.Node, obj oodb.OID) (float64, error) {
	return col.findIRSValueDepth(node, obj, 0)
}

// maxDeriveDepth bounds the component recursion. Document trees are
// shallow; the bound only guards against reference cycles an
// application could build by editing children attributes directly.
const maxDeriveDepth = 64

// ErrDeriveDepth is returned when derivation recursion exceeds
// maxDeriveDepth (almost certainly a cycle in component references).
var ErrDeriveDepth = errors.New("core: derivation exceeds depth bound (component cycle?)")

func (col *Collection) findIRSValueDepth(node *irs.Node, obj oodb.OID, depth int) (float64, error) {
	if depth > maxDeriveDepth {
		return 0, fmt.Errorf("%w: %s", ErrDeriveDepth, obj)
	}
	scores, err := col.getIRSResultNode(node)
	if err != nil {
		return 0, err
	}
	if v, ok := scores[obj]; ok {
		return v, nil
	}
	if col.Represented(obj) {
		// "If the object is represented in the IRS collection, the
		// IRS directly calculates the value" — absence from the
		// result means no evidence, i.e. the model's default.
		col.stats.DefaultValues.Add(1)
		return col.defaultValue(), nil
	}
	return col.deriveValueDepth(node, obj, depth)
}

// deriveValue computes the value of an unrepresented object from
// its components' values (Section 4.5.2). Components are the
// object's children in the document tree; their values come from
// the same (buffered) machinery, recursing further down for
// components that are themselves unrepresented.
func (col *Collection) deriveValue(node *irs.Node, obj oodb.OID) (float64, error) {
	return col.deriveValueDepth(node, obj, 0)
}

func (col *Collection) deriveValueDepth(node *irs.Node, obj oodb.OID, depth int) (float64, error) {
	if depth > maxDeriveDepth {
		return 0, fmt.Errorf("%w: %s", ErrDeriveDepth, obj)
	}
	col.stats.Derivations.Add(1)
	deriver := col.Deriver()
	kids := col.c.store.Children(obj)
	if len(kids) == 0 {
		return col.defaultValue(), nil
	}
	needSubs := deriver.NeedsSubqueries()
	subs := node.Subqueries()
	comps := make([]derive.Component, 0, len(kids))
	for _, kid := range kids {
		comp := derive.Component{
			Type:   col.componentType(kid),
			Length: len(strings.Fields(col.c.store.SubtreeText(kid))),
		}
		v, err := col.findIRSValueDepth(node, kid, depth+1)
		if err != nil {
			return 0, err
		}
		comp.Value = v
		if needSubs && len(subs) > 1 {
			comp.PerSub = make([]float64, len(subs))
			for i, sub := range subs {
				sv, err := col.findIRSValueDepth(sub, kid, depth+1)
				if err != nil {
					return 0, err
				}
				comp.PerSub[i] = sv
			}
		}
		comps = append(comps, comp)
	}
	return deriver.Derive(node, comps, col.defaultValue()), nil
}

func (col *Collection) componentType(oid oodb.OID) string {
	if t := col.c.store.TypeOf(oid); t != "" {
		return t
	}
	class, _ := col.c.db.ClassOf(oid)
	return class
}

// onUpdate records a relevant committed database mutation in the
// update log. What decides is the object's class (relevant), not
// whether the object is represented right now: a delete or an edit
// that arrives while a flush holds the object's drained create in
// flight finds it neither represented nor logged, and dropping it
// would leave the index holding an object the database no longer
// does, or its stale text. The flush skips modifies and deletes of
// unrepresented objects. A text or structure change affects the
// representation of the object itself and of every ancestor (their
// getText covers the subtree), so all relevant ones are logged.
func (col *Collection) onUpdate(u oodb.Update) {
	logged := false
	switch u.Kind {
	case oodb.UpdateCreate, oodb.UpdateDelete:
		if col.relevant(u.Class) {
			kind := pendingCreate
			if u.Kind == oodb.UpdateDelete {
				kind = pendingDelete
			}
			col.log.add(u.OID, kind, &col.stats)
			logged = true
		}
	case oodb.UpdateModify:
		for oid, class := u.OID, u.Class; oid != oodb.NilOID; {
			if col.relevant(class) {
				col.log.add(oid, pendingModify, &col.stats)
				logged = true
			}
			oid = col.c.store.Parent(oid)
			class, _ = col.c.db.ClassOf(oid)
		}
	}
	if logged {
		col.bumpEpoch()
	}
	if col.degraded.Load() {
		// Updates keep accumulating in the log for recovery to drain;
		// flushing them is what degradation forbids.
		return
	}
	switch col.Policy() {
	case PropagateImmediately:
		if col.log.pending() {
			// Errors here cannot be returned to the mutator (the hook
			// runs post-commit); count them so they are observable and
			// let the next query surface the retry.
			if err := col.Flush(); err != nil {
				col.noteFlushError(err)
			}
		}
	case PropagateAsync:
		if logged {
			col.kickFlusher()
		}
	}
}

// stagedOp is one flush operation staged between the log drain and
// the commit batch; create/modify ops carry first the extracted text
// and then (after the analyze stage) the commit-ready document.
type stagedOp struct {
	kind     pendingKind
	ext      string
	text     string
	analyzed *irs.AnalyzedDoc
}

// Flush propagates pending updates to the IRS collection through the
// staged write pipeline: modified representations are refreshed,
// deleted objects removed, and new members admitted from the logged
// creations (newMembers). The result buffer is invalidated
// ("rebuilding the IRS index structures even though they will not
// change after all" is avoided by the log's cancellation, Section
// 4.6).
//
// The pipeline has three stages. Stage: text extraction and the
// membership test consult the database and must not run under the
// index commit lock. Analyze: staged texts are tokenized into
// commit-ready irs.AnalyzedDocs, in parallel across GOMAXPROCS
// workers, still outside every lock. Commit: one short index batch
// merges the pre-built postings, so the commit lock — during which no
// snapshot can be acquired — is held for pointer work only, and a
// concurrent query's snapshot observes either none or all of the
// flush. Whole pipelines are serialized per collection (flushMu),
// which is what lets Drain guarantee completed propagation.
func (col *Collection) Flush() error {
	if err := col.degradedErr(); err != nil {
		// Pending ops stay in the log — nothing is drained while
		// degraded, so recovery (Reindex or restart) still sees them.
		return err
	}
	col.flushMu.Lock()
	defer col.flushMu.Unlock()
	ops, seq := col.log.drain()
	if len(ops) == 0 {
		col.storeApplied(seq)
		return nil
	}
	col.stats.Flushes.Add(1)
	tr := obs.StartTrace("flush", col.name)
	defer tr.Finish(obs.SharedSlowLog)
	var staged []stagedOp
	var created []oodb.OID
	for _, op := range ops {
		ext := op.oid.String()
		represented := col.irsColl.HasDoc(ext)
		switch {
		case op.kind == pendingCreate && !represented:
			created = append(created, op.oid)
		case !represented:
			// A modify or delete of an object the index does not hold.
		case op.kind == pendingDelete:
			staged = append(staged, stagedOp{kind: pendingDelete, ext: ext})
		default:
			// A modify — or a create whose object a full specification
			// re-run, racing the logging, admitted from the extent
			// already; that create may have absorbed later edits, so
			// the representation is refreshed all the same.
			staged = append(staged, stagedOp{kind: pendingModify, ext: ext, text: col.text(op.oid)})
		}
	}
	if len(created) > 0 {
		oids, delta, err := col.newMembers(created)
		if err != nil {
			// The drained operations are gone from the log and were
			// never committed; only Reindex can recover them.
			col.lostOps.Store(true)
			return err
		}
		for _, oid := range oids {
			text := col.text(oid)
			if !col.c.db.Exists(oid) {
				// Deleted since its create was drained; the delete is in
				// the log. Indexing the object now would only plant a
				// ghost for the next flush to remove.
				continue
			}
			staged = append(staged, stagedOp{kind: pendingCreate, ext: oid.String(), text: text})
			if delta {
				col.stats.DeltaAdmitted.Add(1)
			}
		}
	}
	if len(staged) == 0 {
		col.storeApplied(seq)
		return nil
	}

	start := time.Now()
	col.analyzeStaged(staged)
	analyzeTook := time.Since(start)
	col.stats.AnalyzeNanos.Add(int64(analyzeTook))
	flushAnalyzeHist.Observe(analyzeTook)
	tr.Span("analyze", analyzeTook)
	tr.Attr("staged", len(staged))

	// Write-ahead: the batch reaches the log (and, under the always
	// policy, the disk) before any of it reaches the index. A refused
	// append degrades the collection instead of committing unlogged
	// state — the drained ops are preserved only in memory then, so
	// the degradation is loud (Drain fails) rather than silent.
	var walOps []irs.WALOp
	if col.irsColl.WALEnabled() {
		walOps = make([]irs.WALOp, 0, len(staged))
		for i := range staged {
			op := &staged[i]
			switch op.kind {
			case pendingCreate:
				walOps = append(walOps, irs.WALOp{Kind: irs.WALAdd, Doc: op.analyzed})
			case pendingModify:
				walOps = append(walOps, irs.WALOp{Kind: irs.WALUpdate, Doc: op.analyzed})
			case pendingDelete:
				walOps = append(walOps, irs.WALOp{Kind: irs.WALDelete, ExtID: op.ext})
			}
		}
		start = time.Now()
		if werr := col.irsColl.WALAppend(walOps, seq); werr != nil {
			werr = fmt.Errorf("core: wal append for %q: %w", col.name, werr)
			col.lostOps.Store(true)
			col.setDegraded(werr)
			return werr
		}
		tr.Span("wal_append", time.Since(start))
	}

	applied := 0
	start = time.Now()
	err := col.irsColl.Batch(func(b *irs.Batch) error {
		for i := range staged {
			op := &staged[i]
			switch op.kind {
			case pendingModify:
				if !b.Has(op.ext) {
					continue // deleted since staging
				}
				if _, err := b.UpdateAnalyzed(op.analyzed); err != nil {
					return err
				}
			case pendingDelete:
				if !b.Has(op.ext) {
					continue
				}
				if err := b.Delete(op.ext); err != nil {
					return err
				}
			case pendingCreate:
				if b.Has(op.ext) {
					continue // appeared since staging
				}
				if _, err := b.AddAnalyzed(op.analyzed); err != nil {
					return err
				}
				col.stats.Indexed.Add(1)
			}
			col.stats.OpsApplied.Add(1)
			applied++
		}
		return nil
	})
	commitTook := time.Since(start)
	col.stats.CommitNanos.Add(int64(commitTook))
	flushCommitHist.Observe(commitTook)
	tr.Span("commit_batch", commitTook)
	tr.Attr("applied", applied)
	if err != nil && walOps != nil {
		// Every op in the failed batch is already durable in the log, so
		// the group is recoverable: reapply it idempotently (ops the
		// batch landed before failing re-apply onto the same state) and
		// the index converges on exactly the state replay would rebuild.
		// This is what turns ErrUpdatesLost from terminal into rare.
		if rerr := col.irsColl.WALReapply(walOps); rerr == nil {
			col.stats.FlushRecoveries.Add(1)
			tr.Attr("wal_reapplied", len(walOps))
			applied = len(walOps)
			err = nil
		}
	}
	// Invalidate even on error: the batch has no rollback, so any
	// operations applied before the failure are committed and buffered
	// results may already be stale.
	if applied > 0 {
		col.stats.GroupCommits.Add(1)
		col.stats.GroupedOps.Add(int64(applied))
		col.buffer.invalidate()
		col.bumpEpoch()
	}
	if err == nil {
		col.storeApplied(seq)
	} else {
		// Part of the drained group may be committed, the rest is
		// lost (no rollback, log already drained): poison the drain
		// barrier until a Reindex resynchronizes.
		col.lostOps.Store(true)
	}
	return err
}

// newMembers returns the objects a flush that drained the creations
// in created must admit, in ascending OID order — the order the extent
// scan of a full re-run yields, so document ids and rankings do not
// depend on the path taken — and whether they came from the delta. On
// a delta-able collection the candidates are the created objects
// themselves: no WHERE makes the class test already applied by
// onUpdate the whole membership test, a WHERE is evaluated with the
// FROM variable bound to them. Other collections, and the first such
// flush after open (reconciled unset), re-run the specification query over
// the extent and admit whatever it selects that is not represented.
// created holds unrepresented objects only.
func (col *Collection) newMembers(created []oodb.OID) (oids []oodb.OID, delta bool, err error) {
	if col.deltaClass == "" || !col.reconciled.Load() {
		col.stats.SpecReruns.Add(1)
		if oids, err = col.specResult(); err == nil {
			col.reconciled.Store(true)
			oids = slices.DeleteFunc(oids, col.Represented)
		}
		return oids, false, err
	}
	slices.Sort(created)
	if col.spec.Where != nil {
		created, err = col.specResultOver(created)
	}
	return created, true, err
}

// analyzeStaged runs the analyze stage: every staged create/modify is
// tokenized into a commit-ready document, fanning out across
// GOMAXPROCS workers. No locks are held — this is the work the
// pre-pipeline Flush performed inside the commit batch.
func (col *Collection) analyzeStaged(staged []stagedOp) {
	mode := fmt.Sprint(col.textMode)
	analyzeOne := func(op *stagedOp) {
		if op.kind == pendingDelete {
			return
		}
		op.analyzed = col.irsColl.Analyze(op.ext, op.text,
			map[string]string{"oid": op.ext, "mode": mode})
		op.text = "" // the analyzed form supersedes the raw text
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(staged) {
		workers = len(staged)
	}
	if workers <= 1 {
		for i := range staged {
			analyzeOne(&staged[i])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(staged) {
					return
				}
				analyzeOne(&staged[i])
			}
		}()
	}
	wg.Wait()
}

// storeApplied advances the applied watermark monotonically.
func (col *Collection) storeApplied(seq uint64) {
	for {
		cur := col.applied.Load()
		if seq <= cur || col.applied.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Watermark returns the sequence number of the last update accepted
// into this collection's log. Async ingest responses carry it so
// clients can wait for visibility (AppliedWatermark >= their
// watermark, or simply Drain).
func (col *Collection) Watermark() uint64 { return col.log.lastSeq() }

// AppliedWatermark returns the highest watermark whose operations
// have been committed to the IRS index.
func (col *Collection) AppliedWatermark() uint64 { return col.applied.Load() }

// ErrUpdatesLost reports that a flush drained operations from the
// update log and then failed to commit them: there is no rollback and
// the log no longer holds them, so the index is missing updates until
// Reindex resynchronizes it with the database.
var ErrUpdatesLost = errors.New("core: updates dropped by a failed flush; Reindex to resynchronize")

// Drain blocks until every update logged before the call has been
// propagated, regardless of which policy (or background flusher) is
// doing the propagating. Because flush pipelines are serialized, one
// synchronous Flush suffices: any pipeline already in flight holds
// flushMu until its commit lands, and whatever it left behind is
// drained here. If an earlier flush (for example the background
// flusher's, whose error had no caller to land on) dropped drained
// operations, Drain reports ErrUpdatesLost instead of claiming the
// barrier holds.
func (col *Collection) Drain() error {
	if err := col.Flush(); err != nil {
		return err
	}
	// Drain doubles as the durability barrier: under the group fsync
	// policy flushed records may still sit in the OS cache, so force
	// them down before declaring the log drained.
	if err := col.irsColl.WALSync(); err != nil {
		err = fmt.Errorf("core: wal sync for %q: %w", col.name, err)
		col.setDegraded(err)
		return err
	}
	if col.lostOps.Load() {
		return fmt.Errorf("%w (last error: %s)", ErrUpdatesLost, col.LastFlushError())
	}
	return nil
}

// noteFlushError records a flush failure on a path that has no caller
// to return it to (post-commit hooks, the background flusher, close).
func (col *Collection) noteFlushError(err error) {
	if err == nil {
		return
	}
	col.stats.FlushErrors.Add(1)
	col.errMu.Lock()
	col.lastFlushErr = err.Error()
	col.errMu.Unlock()
}

// LastFlushError returns the most recent background flush failure
// ("" if none); /stats surfaces it.
func (col *Collection) LastFlushError() string {
	col.errMu.Lock()
	defer col.errMu.Unlock()
	return col.lastFlushErr
}

// ErrDegraded reports that the collection is read-only because its
// write-ahead log refused an append or fsync: committing unlogged
// operations would break the write-ahead invariant, so propagation is
// parked until Reindex rotates a fresh log or the process restarts.
var ErrDegraded = errors.New("core: collection degraded (wal failure); serving reads only — Reindex or restart to recover")

// Degraded reports whether the collection is in WAL-degraded
// read-only mode, and why.
func (col *Collection) Degraded() (bool, string) {
	if !col.degraded.Load() {
		return false, ""
	}
	col.errMu.Lock()
	defer col.errMu.Unlock()
	return true, col.degradedReason
}

func (col *Collection) degradedErr() error {
	if !col.degraded.Load() {
		return nil
	}
	col.errMu.Lock()
	reason := col.degradedReason
	col.errMu.Unlock()
	return fmt.Errorf("%w: %s", ErrDegraded, reason)
}

// setDegraded parks the collection read-only and records why; the
// failure also lands on the FlushErrors/LastFlushError surface so
// existing monitoring sees it without new wiring.
func (col *Collection) setDegraded(err error) {
	col.noteFlushError(err)
	col.errMu.Lock()
	col.degradedReason = err.Error()
	col.errMu.Unlock()
	col.degraded.Store(true)
}

func (col *Collection) clearDegraded() {
	if !col.degraded.Load() {
		return
	}
	col.degraded.Store(false)
	col.errMu.Lock()
	col.degradedReason = ""
	col.errMu.Unlock()
}

// AsyncMaxPending returns the configured pending-queue bound (<=0:
// unbounded).
func (col *Collection) AsyncMaxPending() int {
	col.mu.RLock()
	defer col.mu.RUnlock()
	return col.asyncMaxPending
}

// AsyncBacklogFull reports whether the collection runs an async
// propagation policy whose pending-update queue has reached its
// bound. Serving layers use it as the backpressure signal: shed
// ingest load (503) instead of letting the backlog grow without
// bound. Updates that do arrive are still logged — correctness never
// depends on the bound.
func (col *Collection) AsyncBacklogFull() bool {
	col.mu.RLock()
	async := col.policy == PropagateAsync
	bound := col.asyncMaxPending
	col.mu.RUnlock()
	return async && bound > 0 && col.log.size() >= bound
}

// PendingOps reports the size of the update log (experiments).
func (col *Collection) PendingOps() int { return col.log.size() }
