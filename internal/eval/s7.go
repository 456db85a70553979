package eval

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	docirs "repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// EXP-S7 — adaptive serving: the cost-aware 2Q query cache and the
// load-adaptive ingest coalescing window, A/B'd against their
// baselines at the HTTP layer (the whole serving stack in the loop,
// like production traffic would see it).
//
// Part 1 (cache): the same zipfian query stream is replayed against
// two servers that differ only in caching: one without a cache, one
// with the 2Q cache at a small entry budget. The skewed head
// re-references a few queries constantly while the long tail arrives
// as one-shot scans — the mix a recency LRU handles worst (every tail
// query evicts a hot entry it will never earn back). The 2Q
// probationary queue absorbs the tail and its frequency ×
// rebuild-cost eviction keeps the head resident, so it must answer
// the stream with at most a quarter of the uncached server's
// candidates scored (TopKStats deltas over /stats) — and, being a
// cache, with bit-identical rankings. (A recency LRU of the same
// budget scored 0.316 of the uncached count on this stream; the gate
// sits below it.)
//
// Part 2 (coalescing): the same bursty async-ingest workload runs
// against a fixed 2ms group-commit window (AsyncCoalesceMin ==
// AsyncCoalesceMax) and against the adaptive controller inside the
// default bounds. The controller widens toward max during bursts
// (bigger group commits, less per-commit overhead) and narrows when
// idle. Ingest-to-drain throughput and the p99 of reads
// probed during ingest are reported for both (wall clock, not gated);
// the drained index must serve bit-identical rankings in both modes —
// group commits may batch updates, never lose or reorder them.

// S7Result is the outcome of EXP-S7.
type S7Result struct {
	// Cache A/B (no cache vs 2Q, identical zipfian stream).
	CacheBudget       int
	QueryPool         int
	Requests          int
	ScoredNoCache     int64
	Scored2Q          int64
	ScoredRatio       float64 // Scored2Q / ScoredNoCache; gate <= s7ScoredGate
	HitRate2Q         float64
	EvictedCost2Q     float64 // measured rebuild seconds discarded by the 2Q main segment
	CacheRankingsSame bool
	// Coalescing A/B (identical bursty ingest, async policy).
	IngestDocs           int
	FixedElapsed         time.Duration
	AdaptiveElapsed      time.Duration
	ThroughputRatio      float64 // fixed/adaptive elapsed (reported, not gated)
	ReadP99Fixed         time.Duration
	ReadP99Adaptive      time.Duration
	CoalesceRankingsSame bool
}

const (
	s7CacheBudget = 32   // cache entries — far below the pool
	s7QueryPool   = 1024 // distinct queries the zipfian stream draws from
	s7Requests    = 8000 // stream length per server
	s7ZipfS       = 1.3  // skew: a hot head plus a heavy one-shot tail
	s7K           = 10

	s7Bursts     = 10 // ingest bursts per coalescing variant
	s7BurstPosts = 3  // async posts back-to-back within a burst
	s7BurstBatch = 40 // documents per post
	s7IdleGap    = 3 * time.Millisecond

	// The scored gate is deterministic (counter deltas). Ingest
	// throughput and read p99 of the coalescing A/B are wall clock:
	// reported, not gated.
	s7ScoredGate = 0.25
)

// s7System is one server under test with its HTTP frontend.
type s7System struct {
	sys *docirs.System
	srv *server.Server
	ts  *httptest.Server
}

func s7Open(cfg server.Config) (*s7System, error) {
	sys, err := docirs.Open("")
	if err != nil {
		return nil, err
	}
	srv := server.New(sys, cfg)
	return &s7System{sys: sys, srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (s *s7System) close() {
	s.ts.Close()
	s.sys.Close()
}

// s7Call issues one JSON request and decodes the response, failing on
// non-2xx statuses.
func s7Call(ts *httptest.Server, method, path string, body any) (map[string]any, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: status %d: %v", method, path, resp.StatusCode, out["error"])
	}
	return out, nil
}

// s7Seed loads the workload DTD and corpus into a server and creates
// the paragraph collection. One batch per call keeps the request
// history identical across variants (OID allocation is
// history-dependent, and the ranking gates compare external ids).
func s7Seed(s *s7System, corpus *workload.Corpus, policy string) error {
	if _, err := s7Call(s.ts, "POST", "/dtds", map[string]any{"name": "mmf", "dtd": workload.MMFDTD}); err != nil {
		return err
	}
	docs := make([]string, len(corpus.Docs))
	for i := range corpus.Docs {
		docs[i] = corpus.Docs[i].SGML
	}
	if _, err := s7Call(s.ts, "POST", "/documents", map[string]any{"dtd": "mmf", "documents": docs}); err != nil {
		return err
	}
	req := map[string]any{"name": "collPara", "spec": "ACCESS p FROM p IN PARA;"}
	if policy != "" {
		req["policy"] = policy
	}
	_, err := s7Call(s.ts, "POST", "/collections", req)
	return err
}

func s7SearchPath(q string, limit int) string {
	return fmt.Sprintf("/collections/collPara/search?q=%s&limit=%d", url.QueryEscape(q), limit)
}

// s7Scored reads the collection's cumulative candidates-scored
// counter from /stats — the serving-layer view of evaluation work.
func s7Scored(s *s7System) (int64, error) {
	out, err := s7Call(s.ts, "GET", "/stats", nil)
	if err != nil {
		return 0, err
	}
	colls, _ := out["collections"].(map[string]any)
	coll, _ := colls["collPara"].(map[string]any)
	topk, _ := coll["topk"].(map[string]any)
	scored, ok := topk["candidates_scored"].(float64)
	if !ok {
		return 0, fmt.Errorf("/stats missing collections.collPara.topk.candidates_scored")
	}
	return int64(scored), nil
}

// s7QueryPoolGen builds the distinct-query pool, deliberately
// heterogeneous in rebuild cost: even slots carry every topic term
// (dense posting lists — a miss scores nearly every paragraph), odd
// slots pair two background-vocabulary words (sparse — a miss scores
// a handful). Recency is blind to that 50x spread; the 2Q policy's
// freq × measured-cost eviction is exactly the mechanism that keeps
// the expensive entries resident and takes its misses on the cheap
// ones. The trailing w-term makes every pool entry a distinct cache
// key.
func s7QueryPoolGen(vocab int) []string {
	var terms []string
	for _, t := range workload.DefaultTopics() {
		terms = append(terms, t.Terms...)
	}
	dense := strings.Join(terms, " ")
	pool := make([]string, s7QueryPool)
	for i := range pool {
		if i%2 == 0 {
			pool[i] = fmt.Sprintf("#sum(%s w%03d)", dense, (i*37)%vocab)
		} else {
			pool[i] = fmt.Sprintf("#sum(w%03d w%03d)", (i*31+200)%vocab, (i*53+400)%vocab)
		}
	}
	return pool
}

// s7HitRate is the cache's hit share of its lookups.
func s7HitRate(cm server.CacheMetrics) float64 {
	hits := cm.HitsMain + cm.HitsProbation
	if total := hits + cm.MissesCold; total > 0 {
		return float64(hits) / float64(total)
	}
	return 0
}

// s7CachePhase replays one pre-drawn zipfian request stream against a
// fresh server with the given cache size (negative: no cache) and
// returns the candidates-scored delta plus the comparison responses
// (one per pool query, issued in pool order after the stream).
func s7CachePhase(corpus *workload.Corpus, cacheSize int, pool []string, stream []int) (scored int64, hitRate float64, evictedCost float64, compare []any, err error) {
	s, err := s7Open(server.Config{CacheSize: cacheSize})
	if err != nil {
		return 0, 0, 0, nil, err
	}
	defer s.close()
	if err := s7Seed(s, corpus, ""); err != nil {
		return 0, 0, 0, nil, err
	}
	before, err := s7Scored(s)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	for _, idx := range stream {
		if _, err := s7Call(s.ts, "GET", s7SearchPath(pool[idx], s7K), nil); err != nil {
			return 0, 0, 0, nil, err
		}
	}
	after, err := s7Scored(s)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	cm := s.srv.CacheMetrics()
	hitRate = s7HitRate(cm)
	// Comparison pass in pool order: identical request histories mean
	// identical OID allocation, so rankings must match bit for bit.
	for _, q := range pool {
		out, err := s7Call(s.ts, "GET", s7SearchPath(q, s7K), nil)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		compare = append(compare, out["results"])
	}
	return after - before, hitRate, cm.EvictedCost, compare, nil
}

// s7IngestPhase runs the bursty async-ingest workload under one
// coalescing configuration: wall clock covers first post to drained
// watermark, a concurrent prober samples read latency, and the
// returned comparison responses capture the drained index's rankings.
func s7IngestPhase(cfg server.Config, corpus *workload.Corpus, probeQ string, compareQs []string) (elapsed time.Duration, p99 time.Duration, compare []any, err error) {
	s, err := s7Open(cfg)
	if err != nil {
		return 0, 0, nil, err
	}
	defer s.close()
	// Seed only the DTD and the (empty) async collection; the corpus
	// itself is the timed workload.
	if _, err := s7Call(s.ts, "POST", "/dtds", map[string]any{"name": "mmf", "dtd": workload.MMFDTD}); err != nil {
		return 0, 0, nil, err
	}
	if _, err := s7Call(s.ts, "POST", "/collections", map[string]any{
		"name": "collPara", "spec": "ACCESS p FROM p IN PARA;", "policy": "async",
	}); err != nil {
		return 0, 0, nil, err
	}

	// Read prober: top-k searches only (the streaming path does not
	// persist result buffers, so probing allocates no OIDs and the
	// ingest allocation history stays identical across variants).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var lat []time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			if _, err := s7Call(s.ts, "GET", s7SearchPath(probeQ, s7K), nil); err == nil {
				mu.Lock()
				lat = append(lat, time.Since(t0))
				mu.Unlock()
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	next := 0
	start := time.Now()
	for b := 0; b < s7Bursts; b++ {
		for p := 0; p < s7BurstPosts; p++ {
			batch := make([]string, 0, s7BurstBatch)
			for i := 0; i < s7BurstBatch && next < len(corpus.Docs); i++ {
				batch = append(batch, corpus.Docs[next].SGML)
				next++
			}
			if len(batch) == 0 {
				break
			}
			if _, err := s7Call(s.ts, "POST", "/documents", map[string]any{
				"dtd": "mmf", "documents": batch, "mode": "async",
			}); err != nil {
				close(stop)
				wg.Wait()
				return 0, 0, nil, err
			}
		}
		time.Sleep(s7IdleGap)
	}
	if _, err := s7Call(s.ts, "POST", "/collections/collPara/drain", nil); err != nil {
		close(stop)
		wg.Wait()
		return 0, 0, nil, err
	}
	elapsed = time.Since(start)
	close(stop)
	wg.Wait()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if n := len(lat); n > 0 {
		p99 = lat[n*99/100]
	}
	// Drained-state rankings, exhaustive and top-k: group commits may
	// batch propagation, never change what the index serves.
	for _, q := range compareQs {
		for _, limit := range []int{0, s7K} {
			out, err := s7Call(s.ts, "GET", s7SearchPath(q, limit), nil)
			if err != nil {
				return 0, 0, nil, err
			}
			compare = append(compare, out["results"])
		}
	}
	return elapsed, p99, compare, nil
}

// s7Same compares two decoded result lists exactly.
func s7Same(a, b []any) bool {
	raw := func(v []any) string {
		buf, _ := json.Marshal(v)
		return string(buf)
	}
	return raw(a) == raw(b)
}

// RunS7 executes EXP-S7.
func RunS7(w io.Writer) (*S7Result, error) {
	res := &S7Result{
		CacheBudget: s7CacheBudget,
		QueryPool:   s7QueryPool,
		Requests:    s7Requests,
	}

	// --- Part 1: no cache vs 2Q under zipfian skew -----------------
	cfg := workload.DefaultConfig()
	cfg.Docs = 60
	corpus := workload.Generate(cfg)
	pool := s7QueryPoolGen(cfg.Vocabulary)
	// One pre-drawn stream, replayed verbatim against both servers.
	rng := rand.New(rand.NewSource(97))
	zipf := rand.NewZipf(rng, s7ZipfS, 1.0, uint64(len(pool)-1))
	stream := make([]int, s7Requests)
	for i := range stream {
		stream[i] = int(zipf.Uint64())
	}

	scoredNone, _, _, cmpNone, err := s7CachePhase(corpus, -1, pool, stream)
	if err != nil {
		return nil, err
	}
	scored2Q, hit2Q, evicted2Q, cmp2Q, err := s7CachePhase(corpus, s7CacheBudget, pool, stream)
	if err != nil {
		return nil, err
	}
	res.ScoredNoCache, res.Scored2Q = scoredNone, scored2Q
	res.HitRate2Q = hit2Q
	res.EvictedCost2Q = evicted2Q
	if scoredNone > 0 {
		res.ScoredRatio = float64(scored2Q) / float64(scoredNone)
	}
	res.CacheRankingsSame = s7Same(cmpNone, cmp2Q)

	// --- Part 2: fixed vs adaptive coalescing under bursty ingest --
	icfg := workload.DefaultConfig()
	icfg.Docs = s7Bursts * s7BurstPosts * s7BurstBatch
	icfg.WordsRange = [2]int{10, 20}
	icfg.Seed = 43
	ingestCorpus := workload.Generate(icfg)
	res.IngestDocs = len(ingestCorpus.Docs)
	probeQ := "#sum(www nii highway)"
	compareQs := []string{"www", "nii", "sgml markup", "#and(www video)"}

	fixedCfg := server.Config{AsyncCoalesceMin: 2 * time.Millisecond, AsyncCoalesceMax: 2 * time.Millisecond}
	adaptCfg := server.Config{} // adaptive inside the default bounds
	var cmpFixed, cmpAdapt []any
	if res.FixedElapsed, res.ReadP99Fixed, cmpFixed, err = s7IngestPhase(fixedCfg, ingestCorpus, probeQ, compareQs); err != nil {
		return nil, err
	}
	if res.AdaptiveElapsed, res.ReadP99Adaptive, cmpAdapt, err = s7IngestPhase(adaptCfg, ingestCorpus, probeQ, compareQs); err != nil {
		return nil, err
	}
	if res.AdaptiveElapsed > 0 {
		res.ThroughputRatio = float64(res.FixedElapsed) / float64(res.AdaptiveElapsed)
	}
	res.CoalesceRankingsSame = s7Same(cmpFixed, cmpAdapt)

	tab := &Table{
		Title: fmt.Sprintf("EXP-S7: adaptive serving — cache A/B (%d-entry budget, %d-query pool, %d zipf(%.1f) requests) + coalesce A/B (%d docs, %d bursts)",
			s7CacheBudget, s7QueryPool, s7Requests, s7ZipfS, res.IngestDocs, s7Bursts),
		Header: []string{"variant", "scored", "hit rate", "ingest", "read p99"},
	}
	tab.AddRow("no cache / fixed 2ms",
		fmt.Sprintf("%d", res.ScoredNoCache), "-",
		fms(float64(res.FixedElapsed.Microseconds())/1000), fms(float64(res.ReadP99Fixed.Microseconds())/1000))
	tab.AddRow("2q / adaptive",
		fmt.Sprintf("%d", res.Scored2Q), fmt.Sprintf("%.1f%%", 100*res.HitRate2Q),
		fms(float64(res.AdaptiveElapsed.Microseconds())/1000), fms(float64(res.ReadP99Adaptive.Microseconds())/1000))
	tab.Fprint(w)
	fmt.Fprintf(w, "cache: 2q scored %.1f%% of the uncached server's candidates (gate <= %.0f%%), evicted-cost %.4fs, rankings identical: %v\n",
		100*res.ScoredRatio, 100*s7ScoredGate, res.EvictedCost2Q, res.CacheRankingsSame)
	fmt.Fprintf(w, "coalesce: adaptive/fixed throughput %.2fx, rankings identical: %v\n\n",
		res.ThroughputRatio, res.CoalesceRankingsSame)

	if !res.CacheRankingsSame {
		return res, fmt.Errorf("EXP-S7 cache gate tripped: cached rankings differ from uncached ones")
	}
	if res.ScoredRatio > s7ScoredGate {
		return res, fmt.Errorf("EXP-S7 cache gate tripped: 2q scored %.1f%% of the uncached server's candidates (gate: <= %.0f%%)",
			100*res.ScoredRatio, 100*s7ScoredGate)
	}
	if !res.CoalesceRankingsSame {
		return res, fmt.Errorf("EXP-S7 coalesce gate tripped: rankings differ between fixed and adaptive windows")
	}
	return res, nil
}
