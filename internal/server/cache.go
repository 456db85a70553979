package server

import (
	"container/heap"
	"container/list"
	"sync"
)

// cacheKey identifies one cached evaluation result. The epoch
// component is the invalidation mechanism: it is the coupling-wide
// epoch for VQL queries and the per-collection epoch for raw IRS
// searches, both of which advance whenever the update log advances
// (see core.Coupling.Epoch / core.Collection.Epoch). A mutation
// therefore never requires walking the cache — entries cached under
// the old epoch become unreachable and age out under eviction
// pressure, and CacheSize bounds the memory they hold meanwhile.
//
// kbucket is the top-k component for searches: requests with a limit
// evaluate (and cache) the full k-bucket the limit rounds up to, so
// nearby limits share one streaming top-k evaluation instead of
// fragmenting the cache per distinct limit. 0 means unlimited (the
// exhaustive result).
type cacheKey struct {
	kind     string // "query" or "search"
	coll     string // collection name; empty for VQL queries
	strategy string
	query    string
	epoch    uint64
	kbucket  int
}

// kBucket rounds a client limit up to its cache bucket: 0 (no limit)
// stays 0, anything else rounds up to the next power of two, floored
// at minKBucket so tiny limits still share entries. Limits beyond
// maxKBucket degrade to the unlimited (exhaustive) path — the result
// is identical (the response is still truncated to the limit) and a
// hostile huge limit can neither overflow the doubling loop nor size
// a heap allocation.
func kBucket(limit int) int {
	if limit <= 0 || limit > maxKBucket {
		return 0
	}
	b := minKBucket
	for b < limit {
		b <<= 1
	}
	return b
}

// minKBucket is the smallest top-k evaluation size the server asks
// the engine for; limits below it are served from that bucket.
// maxKBucket is the largest: above it, exhaustive evaluation is at
// least as cheap as a near-corpus-sized heap.
const (
	minKBucket = 16
	maxKBucket = 1 << 16
)

// CacheMetrics is a point-in-time snapshot of the query cache's
// internal accounting, published by /stats, /metrics and
// Server.CacheMetrics. Hits are split by segment: a probation hit is
// an entry proving reuse before promotion to the main segment.
type CacheMetrics struct {
	Entries       int   `json:"entries"`
	Capacity      int   `json:"capacity"`
	HitsMain      int64 `json:"hits_main"`
	HitsProbation int64 `json:"hits_probation"`
	MissesCold    int64 `json:"misses_cold"`
	// Promotions counts probation→main promotions, GhostReadmits
	// re-admissions of recently evicted keys straight into the main
	// segment, AdmissionRejects probationary entries dropped without
	// ever being re-referenced (the one-shot scans 2Q exists to keep
	// out of the main segment).
	Promotions       int64   `json:"promotions"`
	GhostReadmits    int64   `json:"ghost_readmits"`
	AdmissionRejects int64   `json:"admission_rejections"`
	Evictions        int64   `json:"evictions"`
	EvictedCost      float64 `json:"evicted_cost"`
}

// costCache is the cost-aware 2Q cache: admission through a
// probationary FIFO, a ghost list of recently evicted keys, and a
// main segment ranked by frequency-and-cost-weighted value (GDSF)
// instead of pure recency.
//
// The structure answers the two ways a plain recency LRU loses at
// serving scale. One-shot scans — crawler traffic, epoch churn
// minting a new key per mutation — enter the probationary FIFO and
// leave through its tail without ever touching the main segment, so
// they cannot flush the hot set. And among hot entries, eviction prefers to keep
// what is expensive to rebuild: each entry carries the measured cost
// of its miss-path evaluation (stage latency × candidates scored,
// from the request trace), and the victim is always the lowest
// priority = inflation + freq × cost. The inflation term is GDSF
// aging: it rises to each victim's priority, so entries that stopped
// being referenced eventually fall below fresh admissions no matter
// how expensive they once were.
//
// A key re-referenced shortly after leaving probation (or main) is
// remembered by the ghost list — key only, no value — and readmitted
// directly into the main segment: that second reference within the
// ghost horizon is 2Q's evidence of genuine reuse.
type costCache struct {
	mu  sync.Mutex
	cap int // total value-carrying entries (probation + main); 0 disables

	probCap  int // probationary FIFO budget (~cap/4)
	mainCap  int // main segment budget (cap - probCap)
	ghostCap int // remembered evicted keys (~cap, ARC-style), values long gone

	prob     *list.List // FIFO of *costEntry; front = newest
	probIdx  map[cacheKey]*list.Element
	ghost    *list.List // FIFO of cacheKey; front = newest
	ghostIdx map[cacheKey]*list.Element
	main     costHeap // min-heap on prio: root = next victim
	mainIdx  map[cacheKey]*costEntry

	// inflation is the GDSF aging floor: the priority of the last
	// main-segment victim. New and re-scored priorities build on it,
	// so long-unreferenced entries age out relative to fresh traffic.
	inflation float64

	// Counters published through metrics.
	hitsMain, hitsProbation, missesCold int64
	promotions, ghostReadmits           int64
	admissionRejects, evictions         int64
	evictedCost                         float64
}

type costEntry struct {
	key  cacheKey
	val  any
	cost float64
	freq int64
	prio float64 // inflation + freq × cost, frozen at last touch
	idx  int     // heap index in main; -1 while in probation
}

// costHeap is a min-heap of main-segment entries by priority.
type costHeap []*costEntry

func (h costHeap) Len() int           { return len(h) }
func (h costHeap) Less(i, j int) bool { return h[i].prio < h[j].prio }
func (h costHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *costHeap) Push(x any)        { e := x.(*costEntry); e.idx = len(*h); *h = append(*h, e) }
func (h *costHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

func newCostCache(capacity int) *costCache {
	probCap := capacity / 4
	if probCap < 1 {
		probCap = 1
	}
	mainCap := capacity - probCap
	if mainCap < 1 {
		mainCap = 1
	}
	// Ghost keys are ~100 bytes each (no result values), so one full
	// extra capacity of history — the ARC sizing — costs next to
	// nothing. Longer horizons measure worse on zipfian streams: they
	// readmit tail queries straight into the main segment on their
	// second-ever reference, churning out genuinely hot entries.
	ghostCap := capacity
	if ghostCap < 2 {
		ghostCap = 2
	}
	return &costCache{
		cap:     capacity,
		probCap: probCap, mainCap: mainCap, ghostCap: ghostCap,
		prob: list.New(), probIdx: make(map[cacheKey]*list.Element),
		ghost: list.New(), ghostIdx: make(map[cacheKey]*list.Element),
		mainIdx: make(map[cacheKey]*costEntry),
	}
}

func (c *costCache) get(k cacheKey) (any, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mainIdx[k]; ok {
		e.freq++
		e.prio = c.inflation + float64(e.freq)*e.cost
		heap.Fix(&c.main, e.idx)
		c.hitsMain++
		return e.val, true
	}
	if el, ok := c.probIdx[k]; ok {
		e := el.Value.(*costEntry)
		// First re-reference: the entry earned its way out of
		// probation into the cost-ranked main segment.
		c.removeProb(el)
		e.freq++
		c.admitMain(e)
		c.promotions++
		c.hitsProbation++
		return e.val, true
	}
	c.missesCold++
	return nil, false
}

func (c *costCache) put(k cacheKey, v any, cost float64) {
	if c.cap <= 0 {
		return
	}
	if cost <= 0 {
		cost = 1e-9 // degrade to frequency-only ranking, never 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mainIdx[k]; ok {
		e.val, e.cost = v, cost
		e.prio = c.inflation + float64(e.freq)*e.cost
		heap.Fix(&c.main, e.idx)
		return
	}
	if el, ok := c.probIdx[k]; ok {
		e := el.Value.(*costEntry)
		e.val, e.cost = v, cost
		return
	}
	e := &costEntry{key: k, val: v, cost: cost, freq: 1, idx: -1}
	if gel, ok := c.ghostIdx[k]; ok {
		// Second reference within the ghost horizon: skip probation,
		// this key has proven reuse.
		c.ghost.Remove(gel)
		delete(c.ghostIdx, k)
		e.freq = 2
		c.admitMain(e)
		c.ghostReadmits++
		return
	}
	c.probIdx[k] = c.prob.PushFront(e)
	for c.prob.Len() > c.probCap {
		tail := c.prob.Back()
		dead := tail.Value.(*costEntry)
		c.removeProb(tail)
		// Never re-referenced while on probation: the value is
		// dropped (admission to the main segment rejected) and only
		// the key is remembered in the ghost list.
		c.remember(dead.key)
		c.admissionRejects++
		c.evictedCost += dead.cost
	}
}

// admitMain inserts e into the main segment, evicting the lowest
// priority entries while over budget and raising the aging floor to
// each victim's priority. Caller holds c.mu.
func (c *costCache) admitMain(e *costEntry) {
	e.prio = c.inflation + float64(e.freq)*e.cost
	heap.Push(&c.main, e)
	c.mainIdx[e.key] = e
	for len(c.main) > c.mainCap {
		victim := heap.Pop(&c.main).(*costEntry)
		delete(c.mainIdx, victim.key)
		c.inflation = victim.prio
		c.remember(victim.key)
		c.evictions++
		c.evictedCost += victim.cost
	}
}

// remember pushes a key onto the ghost list, trimming to ghostCap.
func (c *costCache) remember(k cacheKey) {
	if _, ok := c.ghostIdx[k]; ok {
		return
	}
	c.ghostIdx[k] = c.ghost.PushFront(k)
	for c.ghost.Len() > c.ghostCap {
		tail := c.ghost.Back()
		delete(c.ghostIdx, tail.Value.(cacheKey))
		c.ghost.Remove(tail)
	}
}

func (c *costCache) removeProb(el *list.Element) {
	c.prob.Remove(el)
	delete(c.probIdx, el.Value.(*costEntry).key)
}

func (c *costCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prob.Init()
	c.probIdx = make(map[cacheKey]*list.Element)
	c.ghost.Init()
	c.ghostIdx = make(map[cacheKey]*list.Element)
	c.main = nil
	c.mainIdx = make(map[cacheKey]*costEntry)
	c.inflation = 0
}

func (c *costCache) metrics() CacheMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheMetrics{
		Entries: c.prob.Len() + len(c.main), Capacity: c.cap,
		HitsMain: c.hitsMain, HitsProbation: c.hitsProbation,
		MissesCold: c.missesCold,
		Promotions: c.promotions, GhostReadmits: c.ghostReadmits,
		AdmissionRejects: c.admissionRejects, Evictions: c.evictions,
		EvictedCost: c.evictedCost,
	}
}
