package irs

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Streaming top-k evaluation with MaxScore-style pruning.
//
// The exhaustive Eval path materializes a score for every candidate
// document, and serving layers then keep only the first `limit`
// entries of the sorted result — the classic "score everything, sort,
// truncate" shape. EvalTopK inverts it: every shard streams its
// candidates through a bounded min-heap, and a per-document score
// *upper bound* — derived from per-term statistics the index maintains
// incrementally (max within-document tf per posting list, minimum live
// document length per shard) — lets the shard skip scoring candidates
// that provably cannot enter the top k. This is the index-side
// upper-bound discipline of Turtle & Flood's MaxScore, generalized to
// the operator query language: per-leaf caps propagate through the
// operator tree by interval arithmetic (sound under #not and negative
// #wsum weights, where plain monotone maxima are not).
//
// Shards do not prune in isolation: every evaluation shares one
// cross-shard threshold (sharedThreshold) that each shard's bounded
// heap raises as its local k-th score improves and prunes against,
// so a hot shard's high k-th score terminates cold shards early. A
// two-phase scheduler (runTopK) makes the sharing effective: phase 1
// seeds every shard with its highest-upper-bound candidates to warm
// the threshold, phase 2 finishes the scans in descending
// shard-upper-bound order, skipping shards whose best remaining bound
// already falls below the shared threshold.
//
// Exactness contract: EvalTopK returns *exactly* the first k entries,
// bit-identical scores included, of the exhaustive ranking under the
// canonical order (score descending, external id ascending). Pruning
// only ever skips a document whose upper bound is strictly below the
// current k-th score — locally the shard's own, globally a proven
// lower bound on the global k-th (k real scores at or above it exist
// somewhere); every surviving document is scored by the very same
// code path Eval uses, so floating-point results cannot diverge.
// The bounds themselves stay sound under concurrent mutation: max-tf
// only grows within a shard generation (deletes leave it stale-high,
// which weakens pruning but never correctness) and min-length only
// matters as a lower bound; compaction recomputes both exactly
// (reloads rebuild them from the persisted postings, which may keep
// them stale-high/-low in the sound direction — see index.go).

// ScoredDoc is one ranked hit of a top-k evaluation.
type ScoredDoc struct {
	Doc   DocID
	Ext   string
	Score float64
}

// TopKResult is the outcome of Model.EvalTopK: the k best hits in
// canonical order plus the pruning counters serving layers report
// (Scored + Pruned = number of candidate documents). ShardsSkipped
// counts shards whose entire phase-2 remainder was discarded by the
// cross-shard threshold alone — shards a per-shard-only scan would
// still have walked (see runTopK). The three phase timers attribute
// the evaluation's wall time to the scheduler's stages — prep+seed
// (bound construction and threshold warming), finish (bounded
// remainder scans) and merge (folding per-shard winners) — and feed
// the obs stage histograms and per-request trace spans.
// BlocksSkipped and PostingsDecoded report the block-storage
// counters (see cursor.go): blocks whose compressed tf/position
// payloads were never expanded during the evaluation, and postings
// whose payloads were. Both cover only evaluations where pruning was
// possible (a shardTask with bounds attached); exhaustive fallbacks
// decode everything and report zero.
type TopKResult struct {
	Hits            []ScoredDoc
	Scored          int64
	Pruned          int64
	ShardsSkipped   int64
	BlocksSkipped   int64
	PostingsDecoded int64
	SeedNanos       int64
	FinishNanos     int64
	MergeNanos      int64
}

// better is the canonical ranking order: higher score first, ties by
// ascending external id (the OID string), so top-k boundaries are
// stable and identical to the exhaustive sort in SearchNodeAt.
func better(a, b ScoredDoc) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Ext < b.Ext
}

// topKHeap is a bounded min-heap keeping the k best ScoredDocs seen
// so far; the root is the worst entry kept (the current k-th), whose
// score is the pruning threshold.
type topKHeap struct {
	k       int
	entries []ScoredDoc
}

func newTopKHeap(k int) *topKHeap {
	// Pre-size only up to a sane cap: k is caller-supplied (ultimately
	// a client limit), and a huge k must not translate into a huge
	// up-front allocation per shard — append grows the backing array
	// to the candidates actually kept.
	c := k
	if c > 1024 {
		c = 1024
	}
	return &topKHeap{k: k, entries: make([]ScoredDoc, 0, c)}
}

// threshold returns the current k-th best score; full is false while
// fewer than k entries are held (no pruning possible yet).
func (h *topKHeap) threshold() (score float64, full bool) {
	if len(h.entries) < h.k {
		return 0, false
	}
	return h.entries[0].Score, true
}

// offer inserts a scored document, evicting the current worst when
// the heap is full and the newcomer ranks better. ext is fetched
// lazily — only when the document actually enters the heap.
func (h *topKHeap) offer(doc DocID, score float64, ext func(DocID) string) {
	if h.k <= 0 {
		return
	}
	if len(h.entries) < h.k {
		h.entries = append(h.entries, ScoredDoc{Doc: doc, Ext: ext(doc), Score: score})
		h.up(len(h.entries) - 1)
		return
	}
	root := &h.entries[0]
	if score < root.Score {
		return
	}
	e := ScoredDoc{Doc: doc, Ext: ext(doc), Score: score}
	if !better(e, *root) {
		return
	}
	h.entries[0] = e
	h.down(0)
}

func (h *topKHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !better(h.entries[p], h.entries[i]) {
			break
		}
		h.entries[p], h.entries[i] = h.entries[i], h.entries[p]
		i = p
	}
}

func (h *topKHeap) down(i int) {
	n := len(h.entries)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && better(h.entries[worst], h.entries[l]) {
			worst = l
		}
		if r < n && better(h.entries[worst], h.entries[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.entries[i], h.entries[worst] = h.entries[worst], h.entries[i]
		i = worst
	}
}

// mergeTopK folds per-shard top-k lists (already the exact per-shard
// winners) into the global top k in canonical order.
func mergeTopK(perShard [][]ScoredDoc, k int) []ScoredDoc {
	var all []ScoredDoc
	for _, hs := range perShard {
		all = append(all, hs...)
	}
	sort.Slice(all, func(i, j int) bool { return better(all[i], all[j]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// --- interval arithmetic over the operator tree ---------------------

// interval is a closed score interval [lo, hi]. Leaf beliefs of
// candidate documents always lie inside their leaf interval, and every
// operator's interval evaluation mirrors the scorer's own sequential
// float operations, so operator results stay inside the combined
// interval even at floating-point granularity (correctly rounded
// +, *, / are monotone in each operand).
type interval struct{ lo, hi float64 }

func pointIv(v float64) interval { return interval{v, v} }

// mulIv multiplies two intervals with full sign handling (negative
// values reach the tree through negative #wsum weights).
func mulIv(a, b interval) interval {
	p1, p2, p3, p4 := a.lo*b.lo, a.lo*b.hi, a.hi*b.lo, a.hi*b.hi
	return interval{
		math.Min(math.Min(p1, p2), math.Min(p3, p4)),
		math.Max(math.Max(p1, p2), math.Max(p3, p4)),
	}
}

// combineInterval evaluates one operator over child intervals,
// mirroring the combination semantics shared by the inference-net and
// passage scorers (product #and, complement-product #or, complement
// #not, mean #sum, weighted mean #wsum with zero-weight fallback to
// the default belief b, zero-floored #max).
func combineInterval(kind NodeKind, weights []float64, kids []interval, b float64) interval {
	switch kind {
	case NodeAnd:
		iv := pointIv(1)
		for _, k := range kids {
			iv = mulIv(iv, k)
		}
		return iv
	case NodeOr:
		q := pointIv(1)
		for _, k := range kids {
			q = mulIv(q, interval{1 - k.hi, 1 - k.lo})
		}
		return interval{1 - q.hi, 1 - q.lo}
	case NodeNot:
		return interval{1 - kids[0].hi, 1 - kids[0].lo}
	case NodeSum:
		var lo, hi float64
		for _, k := range kids {
			lo += k.lo
			hi += k.hi
		}
		m := float64(len(kids))
		return interval{lo / m, hi / m}
	case NodeWSum:
		var lo, hi, w float64
		for i, k := range kids {
			if weights[i] >= 0 {
				lo += weights[i] * k.lo
				hi += weights[i] * k.hi
			} else {
				lo += weights[i] * k.hi
				hi += weights[i] * k.lo
			}
			w += weights[i]
		}
		if w == 0 {
			return pointIv(b)
		}
		if w < 0 {
			return interval{hi / w, lo / w}
		}
		return interval{lo / w, hi / w}
	case NodeMax:
		// The scorers start from best = 0.0, so the result is floored
		// at zero even when every child is negative.
		iv := pointIv(0)
		for i, k := range kids {
			if i == 0 {
				iv = interval{math.Max(0, k.lo), math.Max(0, k.hi)}
				continue
			}
			iv = interval{math.Max(iv.lo, k.lo), math.Max(iv.hi, k.hi)}
		}
		return iv
	}
	return pointIv(b)
}

// nodeBoundAt evaluates the subtree's score interval for one
// candidate document. It folds each operator's children in the same
// sequential order as combineInterval (identical float results) but
// without allocating per-node child slices — it runs once per
// candidate, which is the hot path of bound construction. leafIv
// supplies each leaf's belief interval at d, typically refined from
// the max tf of d's containing block (Block-Max-MaxScore).
func nodeBoundAt(n *Node, b float64, d DocID, leafIv func(*Node, DocID) interval) interval {
	switch n.Kind {
	case NodeTerm, NodePhrase, NodeSyn:
		return leafIv(n, d)
	case NodeAnd:
		iv := pointIv(1)
		for _, c := range n.Children {
			iv = mulIv(iv, nodeBoundAt(c, b, d, leafIv))
		}
		return iv
	case NodeOr:
		q := pointIv(1)
		for _, c := range n.Children {
			k := nodeBoundAt(c, b, d, leafIv)
			q = mulIv(q, interval{1 - k.hi, 1 - k.lo})
		}
		return interval{1 - q.hi, 1 - q.lo}
	case NodeNot:
		k := nodeBoundAt(n.Children[0], b, d, leafIv)
		return interval{1 - k.hi, 1 - k.lo}
	case NodeSum:
		var lo, hi float64
		for _, c := range n.Children {
			k := nodeBoundAt(c, b, d, leafIv)
			lo += k.lo
			hi += k.hi
		}
		m := float64(len(n.Children))
		return interval{lo / m, hi / m}
	case NodeWSum:
		var lo, hi, w float64
		for i, c := range n.Children {
			k := nodeBoundAt(c, b, d, leafIv)
			if n.Weights[i] >= 0 {
				lo += n.Weights[i] * k.lo
				hi += n.Weights[i] * k.hi
			} else {
				lo += n.Weights[i] * k.hi
				hi += n.Weights[i] * k.lo
			}
			w += n.Weights[i]
		}
		if w == 0 {
			return pointIv(b)
		}
		if w < 0 {
			return interval{hi / w, lo / w}
		}
		return interval{lo / w, hi / w}
	case NodeMax:
		iv := pointIv(0)
		for i, c := range n.Children {
			k := nodeBoundAt(c, b, d, leafIv)
			if i == 0 {
				iv = interval{math.Max(0, k.lo), math.Max(0, k.hi)}
				continue
			}
			iv = interval{math.Max(iv.lo, k.lo), math.Max(iv.hi, k.hi)}
		}
		return iv
	}
	return pointIv(b)
}

// leavesOf collects the term/phrase/syn leaves of a subtree (not
// descending into phrase/syn children, mirroring the evaluators'
// leaf granularity).
func leavesOf(n *Node) []*Node {
	switch n.Kind {
	case NodeTerm, NodePhrase, NodeSyn:
		return []*Node{n}
	}
	var out []*Node
	for _, c := range n.Children {
		out = append(out, leavesOf(c)...)
	}
	return out
}

// --- cross-shard threshold sharing ----------------------------------

// topkSharingOff disables the cross-shard threshold (and with it the
// two-phase scheduler) when set, reproducing the per-shard-only
// pruning of the earlier engine. It exists for A/B measurement
// (EXP-S4) and for property tests that compare both modes; serving
// code never touches it.
var topkSharingOff atomic.Bool

// SetTopKThresholdSharing toggles cross-shard top-k threshold sharing
// (on by default). Off reproduces the per-shard-only baseline: every
// shard prunes against its own k-th score only. Rankings are
// bit-identical either way — the toggle trades work, not results.
func SetTopKThresholdSharing(on bool) { topkSharingOff.Store(!on) }

// TopKThresholdSharing reports whether cross-shard threshold sharing
// is enabled.
func TopKThresholdSharing() bool { return !topkSharingOff.Load() }

// topkBlockMaxOff disables block-level bound refinement when set:
// per-candidate bounds fall back to the whole-list maxTF statistics
// (the flat-posting engine's pruning), which is what EXP-S5 and
// BenchmarkTopKBlockMax measure against. Storage stays block
// compressed either way.
var topkBlockMaxOff atomic.Bool

// SetTopKBlockMax toggles block-max bound refinement (on by default).
// Off reproduces the whole-list-bound baseline. Rankings are
// bit-identical either way — like threshold sharing, the toggle
// trades work, not results.
func SetTopKBlockMax(on bool) { topkBlockMaxOff.Store(!on) }

// TopKBlockMax reports whether block-max bound refinement is enabled.
func TopKBlockMax() bool { return !topkBlockMaxOff.Load() }

// sharedThreshold is the cross-shard pruning state of one top-k
// evaluation: the best k-th score any shard's bounded heap has
// reached so far, stored as atomic float bits and raised by monotone
// CAS. The value is always a *lower bound on the global k-th best
// score* — a shard holding k scored documents at or above t proves at
// least k documents score ≥ t globally — so any candidate whose score
// upper bound is strictly below it can be discarded by every shard,
// not just the one that raised it. A nil *sharedThreshold disables
// sharing (single-shard evaluations and the A/B baseline).
type sharedThreshold struct {
	bits atomic.Uint64 // Float64bits; -Inf = no full heap yet
}

func newSharedThreshold() *sharedThreshold {
	st := &sharedThreshold{}
	st.bits.Store(math.Float64bits(math.Inf(-1)))
	return st
}

// get returns the current shared threshold; ok is false while no
// shard has filled its heap yet (or sharing is disabled).
func (st *sharedThreshold) get() (float64, bool) {
	if st == nil {
		return 0, false
	}
	v := math.Float64frombits(st.bits.Load())
	return v, !math.IsInf(v, -1)
}

// raise lifts the threshold to v if v improves it (monotone CAS loop;
// concurrent raises settle on the maximum).
func (st *sharedThreshold) raise(v float64) {
	if st == nil {
		return
	}
	for {
		old := st.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if st.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// --- per-shard streaming scan ---------------------------------------

// boundedCand pairs a candidate with its score upper bound.
type boundedCand struct {
	d     DocID
	bound float64
}

// shardTask is what a model contributes per shard: the candidate
// documents, the exact scorer (the very same code path the exhaustive
// evaluator uses) and an optional score upper bound. boundOf nil means
// pruning is impossible in this shard (no usable bound state, or at
// most k candidates) — every candidate is scored. stats, when set,
// reports the shard's block decode counters once the evaluation is
// done (models attach it only alongside boundOf: the counters measure
// what pruning saved).
type shardTask struct {
	ids     []DocID
	boundOf func(DocID) float64
	scoreOf func(DocID) float64
	stats   func() (blocksSkipped, postingsDecoded int64)
}

// shardScan is the resumable streaming scan of one shard. Candidates
// are visited in descending bound order, each survivor is scored
// exactly, and the scan stops — pruning the entire remainder — as
// soon as the next bound falls strictly below the effective
// threshold: the worse of nothing, the local heap's k-th score, and
// the shared cross-shard threshold. Strictness matters: a document
// whose bound *equals* the threshold could still win its tie on
// external id, so it is scored.
//
// The scan runs in two phases (see runTopK): seed scores at most the
// k highest-bound candidates, finish consumes the remainder under the
// warmed shared threshold. Splitting changes which documents are
// scored, never which are returned: pruning only ever discards
// documents provably outside the global top k.
type shardScan struct {
	k       int
	task    shardTask
	ext     func(DocID) string
	shared  *sharedThreshold
	h       *topKHeap
	cands   []boundedCand // sorted by descending bound; nil = unbounded
	next    int           // scan position within cands
	seedEnd int           // next at the end of phase 1
	scored  int64
	pruned  int64
	skipped bool // whole remainder discarded by the shared threshold alone
}

func newShardScan(k int, t shardTask, ext func(DocID) string, shared *sharedThreshold) *shardScan {
	sc := &shardScan{k: k, task: t, ext: ext, shared: shared, h: newTopKHeap(k)}
	if t.boundOf != nil && len(t.ids) > k {
		sc.cands = make([]boundedCand, len(t.ids))
		for i, d := range t.ids {
			sc.cands[i] = boundedCand{d: d, bound: t.boundOf(d)}
		}
		sort.Slice(sc.cands, func(i, j int) bool {
			if sc.cands[i].bound != sc.cands[j].bound {
				return sc.cands[i].bound > sc.cands[j].bound
			}
			return sc.cands[i].d < sc.cands[j].d
		})
	}
	return sc
}

// offer scores d into the local heap and, once the heap is full,
// publishes its k-th score to the shared threshold — every heap entry
// is a real document score, so the raise is always a sound global
// lower bound.
func (sc *shardScan) offer(d DocID, score float64) {
	sc.scored++
	sc.h.offer(d, score, sc.ext)
	if sc.shared != nil {
		if th, full := sc.h.threshold(); full {
			sc.shared.raise(th)
		}
	}
}

// effective returns the strongest pruning threshold currently
// available to this shard: the max of its own full heap's k-th score
// and the shared cross-shard threshold.
func (sc *shardScan) effective() (float64, bool) {
	th, full := sc.h.threshold()
	sv, sok := sc.shared.get()
	switch {
	case full && sok:
		return math.Max(th, sv), true
	case full:
		return th, true
	case sok:
		return sv, true
	}
	return 0, false
}

// seed is phase 1: warm the thresholds cheaply. Unbounded shards are
// consumed whole (they must score everything anyway, and doing it now
// contributes their k-th scores to the shared threshold before any
// bounded remainder is walked); bounded shards score exactly their
// min(k, n) highest-bound candidates — the candidates a per-shard-only
// scan would score unconditionally too, so the seed never does extra
// work.
func (sc *shardScan) seed() {
	if sc.cands == nil {
		for _, d := range sc.task.ids {
			sc.offer(d, sc.task.scoreOf(d))
		}
		return
	}
	for sc.next < len(sc.cands) && sc.next < sc.k {
		d := sc.cands[sc.next].d
		sc.next++
		sc.offer(d, sc.task.scoreOf(d))
	}
	sc.seedEnd = sc.next
}

// remaining reports how many candidates phase 2 still has to consider.
func (sc *shardScan) remaining() int { return len(sc.cands) - sc.next }

// pruneRemainder discards everything from next on. When phase 2 has
// not scored a single candidate of this shard yet, the whole phase-2
// remainder was retired without touching a posting — attributed to
// the *shared* threshold (TopKStats.ShardsSkipped) only when the
// local one alone would not have sufficed; that difference is exactly
// the cross-shard win.
func (sc *shardScan) pruneRemainder(bound float64) {
	if sc.next == sc.seedEnd {
		lth, lfull := sc.h.threshold()
		sc.skipped = !lfull || bound >= lth
	}
	sc.pruned += int64(sc.remaining())
	sc.next = len(sc.cands)
}

// skipAll is the phase-2 launch check: if the shard's best remaining
// bound is already strictly below the effective threshold, the
// remainder is discarded before a scan goroutine is even spawned.
func (sc *shardScan) skipAll() bool {
	if sc.remaining() == 0 {
		return false
	}
	b := sc.cands[sc.next].bound
	eff, ok := sc.effective()
	if !ok || b >= eff {
		return false
	}
	sc.pruneRemainder(b)
	return true
}

// finish is phase 2: consume the bounded remainder, re-checking the
// effective threshold before every candidate so a raise from a hotter
// shard terminates this one mid-scan (on the very first candidate,
// that still counts as a whole-shard skip — the launch check and the
// first loop iteration differ only in which goroutine ran them).
func (sc *shardScan) finish() {
	for sc.next < len(sc.cands) {
		b := sc.cands[sc.next].bound
		if eff, ok := sc.effective(); ok && b < eff {
			sc.pruneRemainder(b)
			return
		}
		d := sc.cands[sc.next].d
		sc.next++
		sc.offer(d, sc.task.scoreOf(d))
	}
}

// runTopK is the shared evaluation driver behind every model's
// EvalTopK: it builds one shardScan per shard (prep runs fan-out, so
// bound construction and sorting parallelize), then schedules the
// scans in two phases.
//
// Phase 1 (parallel) seeds every shard: each scores at most its k
// highest-upper-bound candidates, filling its bounded heap and
// raising the shared threshold to the best k-th score seen anywhere.
//
// Phase 2 visits the bounded remainders in descending
// best-remaining-bound order. The hottest shard finishes inline
// before any other starts, so its raises have landed when colder
// shards commit to work — which shards get skipped then depends on
// the data, not on goroutine timing. A shard whose best remaining
// bound is already below the warmed threshold is skipped wholesale
// (counted in ShardsSkipped when the shared threshold alone justified
// it); the rest finish concurrently, each re-checking the shared
// threshold per candidate.
//
// Sharing is disabled (nil threshold) for single-shard snapshots and
// when SetTopKThresholdSharing(false) selects the per-shard-only
// baseline; both phases then collapse into one independent scan per
// shard with unchanged per-shard work.
func runTopK(s *Snapshot, k int, prep func(si int) shardTask, ext func(DocID) string) TopKResult {
	nsh := s.ShardCount()
	var shared *sharedThreshold
	if nsh > 1 && TopKThresholdSharing() {
		shared = newSharedThreshold()
	}
	t0 := time.Now()
	scans := make([]*shardScan, nsh)
	s.parShards(func(si int) {
		scans[si] = newShardScan(k, prep(si), ext, shared)
		scans[si].seed()
		if shared == nil {
			scans[si].finish()
		}
	})
	var res TopKResult
	t1 := time.Now()
	res.SeedNanos = t1.Sub(t0).Nanoseconds()
	if shared != nil {
		order := make([]int, 0, nsh)
		for si, sc := range scans {
			if sc.remaining() > 0 {
				order = append(order, si)
			}
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := scans[order[i]], scans[order[j]]
			if a.cands[a.next].bound != b.cands[b.next].bound {
				return a.cands[a.next].bound > b.cands[b.next].bound
			}
			return order[i] < order[j]
		})
		if len(order) > 0 {
			if sc := scans[order[0]]; !sc.skipAll() {
				sc.finish()
			}
			order = order[1:]
		}
		inline := runtime.GOMAXPROCS(0) == 1
		var wg sync.WaitGroup
		for _, si := range order {
			sc := scans[si]
			if sc.skipAll() {
				continue
			}
			if inline {
				sc.finish()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc.finish()
			}()
		}
		wg.Wait()
	}
	t2 := time.Now()
	res.FinishNanos = t2.Sub(t1).Nanoseconds()
	perShard := make([][]ScoredDoc, nsh)
	for si, sc := range scans {
		perShard[si] = sc.h.entries
		res.Scored += sc.scored
		res.Pruned += sc.pruned
		if sc.skipped {
			res.ShardsSkipped++
		}
		// Decode counters are folded here, after every scan goroutine
		// has finished, so the lazily-mutated view state is read
		// race-free.
		if sc.task.stats != nil && sc.task.boundOf != nil {
			bs, pd := sc.task.stats()
			res.BlocksSkipped += bs
			res.PostingsDecoded += pd
		}
	}
	res.Hits = mergeTopK(perShard, k)
	res.MergeNanos = time.Since(t2).Nanoseconds()
	return res
}

// snapExt adapts Snapshot.ExtID for heap insertion (candidates are
// live by construction).
func snapExt(s *Snapshot) func(DocID) string {
	return func(d DocID) string {
		ext, _ := s.ExtID(d)
		return ext
	}
}
