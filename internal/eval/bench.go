package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	docirs "repro"
	"repro/internal/core"
	"repro/internal/irs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

// benchHotDocs is the size of the planted hot-shard block in
// RunBench's corpus. Big enough that the hot terms seal at least one
// compressed block per posting list (codec.BlockSize = 128 docs) in
// shard 0.
const benchHotDocs = 150

// BenchReport is the machine-readable perf snapshot one PR commits as
// BENCH_<pr>.json. Successive reports form the repo's perf
// trajectory; CI diffs each new report against the previous one and
// fails on regressions beyond tolerance (warn-only when no previous
// report exists).
type BenchReport struct {
	PR         int    `json:"pr"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Benchmarks holds testing.Benchmark results per micro-benchmark.
	Benchmarks map[string]BenchResult `json:"benchmarks"`
	// TopK carries the pruning effectiveness of the streaming engine
	// measured over the top-k benchmark's evaluations.
	TopK TopKRates `json:"topk"`
	// StageLatency digests the mmf_stage_seconds histogram series
	// (topk_seed/topk_finish/topk_merge, analyze/commit_batch)
	// recorded while the benchmarks ran.
	StageLatency map[string]obs.Summary `json:"stage_latency"`
	// ObsOverheadPct is the measured ns/op cost of leaving the obs
	// layer enabled on the top-k search path, as a percentage
	// (A/B with obs.SetEnabled(false); target ≤ 3).
	ObsOverheadPct float64 `json:"obs_overhead_pct"`
	// Mapped carries the mmap serving numbers (AddMappedBench); nil in
	// reports taken before the v5 zero-copy path existed, so diffs
	// against old snapshots keep working.
	Mapped *MappedBench `json:"mapped,omitempty"`
	// Serving carries the adaptive-serving numbers (AddServingBench):
	// the 2Q query cache's hit rate and discarded rebuild cost over a
	// fixed zipfian stream, plus the adaptive coalescing window
	// observed under an ingest burst. Nil in reports taken before the
	// cost-aware cache existed.
	Serving *ServingBench `json:"serving,omitempty"`
	// Durability carries the write-ahead-log numbers
	// (AddDurabilityBench): synchronous per-document ingest under each
	// fsync policy, the log's size/append/fsync shape, and the cost of
	// recovering by replay. Nil in reports taken before the WAL
	// existed.
	Durability *DurabilityBench `json:"durability,omitempty"`
}

// DurabilityBench is the perf snapshot of the durable ingest path: a
// fixed corpus committed document by document under each WAL fsync
// policy, and a crash image of the group run recovered by replay
// alone. Elapsed numbers carry timing noise — trajectory signal, not
// gates (EXP-S8 gates the overhead with slack).
type DurabilityBench struct {
	Docs          int     `json:"docs"`
	SyncOffMs     float64 `json:"sync_ingest_off_ms"`
	SyncGroupMs   float64 `json:"sync_ingest_group_ms"`
	SyncAlwaysMs  float64 `json:"sync_ingest_always_ms"`
	GroupOverhead float64 `json:"group_overhead"` // group/off elapsed ratio
	WALBytes      int64   `json:"wal_bytes"`
	WALAppends    int64   `json:"wal_appends"`
	WALFsyncs     int64   `json:"wal_fsyncs"`
	RecoveredOps  int     `json:"recovered_ops"`
	RecoveryMs    float64 `json:"recovery_ms"` // crash-image open incl. replay
}

// ServingBench is the perf snapshot of the adaptive serving layer.
// The hit rates are deterministic (fixed stream, fixed corpus); the
// evicted cost is measured rebuild seconds and so carries timing
// noise — it is trajectory signal, not a gate.
type ServingBench struct {
	CacheRequests int `json:"cache_requests"`
	// CacheHitRate is keyed by cache policy ("2q") so that older
	// snapshots, which also carry an "lru" baseline, still load.
	CacheHitRate            map[string]float64 `json:"cache_hit_rate"`
	CacheEvictedCostSeconds float64            `json:"cache_evicted_cost_seconds"`
	CoalesceWindowMs        float64            `json:"coalesce_window_ms"`
}

// MappedBench is the perf snapshot of the v5 mmap serving path: cold
// open of one persisted collection on the heap vs mapped, plus the
// residency split the mapped open reports. The steady-state mapped
// search cost rides in Benchmarks["search_topk10_mapped"] so the
// regular diff tolerance applies to it.
type MappedBench struct {
	FileBytes    int64   `json:"file_bytes"`
	OpenHeapNs   float64 `json:"open_heap_ns"`
	OpenMappedNs float64 `json:"open_mapped_ns"`
	OpenSpeedup  float64 `json:"open_speedup"`
	MappedBytes  int64   `json:"mapped_bytes"`
	HeapBytes    int64   `json:"heap_bytes"`
}

// BenchResult is one benchmark's steady-state cost.
type BenchResult struct {
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// TopKRates summarizes MaxScore pruning over a benchmark run.
type TopKRates struct {
	Queries       int64   `json:"queries"`
	Scored        int64   `json:"candidates_scored"`
	Pruned        int64   `json:"candidates_pruned"`
	PruneRate     float64 `json:"prune_rate"`
	ShardsSkipped int64   `json:"shards_skipped"`
	SkippedPerQ   float64 `json:"shards_skipped_per_query"`
	// Block-max counters: compressed posting blocks whose payloads
	// stayed unexpanded through evaluations vs postings whose payloads
	// were decoded for scoring.
	BlocksSkipped   int64 `json:"blocks_skipped"`
	PostingsDecoded int64 `json:"postings_decoded"`
}

func benchResult(r testing.BenchmarkResult) BenchResult {
	return BenchResult{
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// RunBench measures the coupling's hot paths with testing.Benchmark
// and assembles the BenchReport. The benchmarks run at engine/core
// level (no HTTP) so the numbers isolate the reproduction's own code.
func RunBench(w io.Writer, pr int) (*BenchReport, error) {
	// A corpus large enough for MaxScore pruning to engage (the
	// 40-doc default leaves nothing to prune at k=10), sharded like
	// the serving configuration so the seed/finish phases and the
	// cross-shard threshold all run; floor 2 shards on single-CPU
	// machines for the same reason S4 floors its shard count.
	cfg := workload.DefaultConfig()
	cfg.Docs = 400
	shards := runtime.GOMAXPROCS(0)
	if shards < 2 {
		shards = 2
	}
	s, err := NewSetup(cfg)
	if err != nil {
		return nil, err
	}
	s.Engine.SetDefaultShards(shards)
	col, err := s.NewCollection("collPara", "ACCESS p FROM p IN PARA;", core.Options{})
	if err != nil {
		return nil, err
	}
	// Shard skew is what the cross-shard threshold exploits (without
	// it BENCH reports shards_skipped = 0 and the two-phase scheduler
	// idles): plant a hot-topic block whose external ids all hash into
	// shard 0, like EXP-S4/S5. The ids are synthetic OIDs far beyond
	// the corpus range so the result mapping still parses them, and
	// the block is large enough (> codec.BlockSize postings per hot
	// term) for the hot shard's posting lists to seal compressed
	// blocks, exercising block-max skipping too.
	hotText := strings.Repeat("www nii codec video highway ", 8)
	for i, added := uint64(0), 0; added < benchHotDocs; i++ {
		name := fmt.Sprintf("oid%d", 1<<40+i)
		if irs.ShardForExtID(name, shards) != 0 {
			continue
		}
		if err := col.IRS().AddDocument(name, hotText, nil); err != nil {
			return nil, err
		}
		added++
	}

	rep := &BenchReport{
		PR:         pr,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: make(map[string]BenchResult),
	}
	// benchErr carries op failures out of the measured closures:
	// b.Fatal cannot be used here — testing.Benchmark outside a test
	// binary has no harness to log through.
	var benchErr error

	// Streaming top-k (k never buffers, so every iteration evaluates).
	tk0 := col.IRS().TopKStats()
	rep.Benchmarks["search_topk10"] = benchResult(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := col.GetIRSResultTopK("#sum(www nii sgml video codec highway)", 10); err != nil {
				benchErr = err
				return
			}
		}
	}))
	if benchErr != nil {
		return nil, benchErr
	}
	tk1 := col.IRS().TopKStats()
	rep.TopK = TopKRates{
		Queries:         tk1.Queries - tk0.Queries,
		Scored:          tk1.Scored - tk0.Scored,
		Pruned:          tk1.Pruned - tk0.Pruned,
		ShardsSkipped:   tk1.ShardsSkipped - tk0.ShardsSkipped,
		BlocksSkipped:   tk1.BlocksSkipped - tk0.BlocksSkipped,
		PostingsDecoded: tk1.PostingsDecoded - tk0.PostingsDecoded,
	}
	if n := rep.TopK.Scored + rep.TopK.Pruned; n > 0 {
		rep.TopK.PruneRate = float64(rep.TopK.Pruned) / float64(n)
	}
	if rep.TopK.Queries > 0 {
		rep.TopK.SkippedPerQ = float64(rep.TopK.ShardsSkipped) / float64(rep.TopK.Queries)
	}

	// Buffered exhaustive search: steady state of the paper's
	// persistent result buffer (first call evaluates and buffers, the
	// measured iterations hit the buffer).
	if _, err := col.GetIRSResult("www"); err != nil {
		return nil, err
	}
	rep.Benchmarks["search_buffered"] = benchResult(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := col.GetIRSResult("www"); err != nil {
				benchErr = err
				return
			}
		}
	}))
	if benchErr != nil {
		return nil, benchErr
	}

	// Ingest: one document through parse, store, propagation and
	// flush (the analyze/commit_batch stage histograms fill here).
	doc := 0
	rep.Benchmarks["ingest_flush"] = benchResult(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			doc++
			sgmlText := fmt.Sprintf(`<MMFDOC><LOGBOOK>bench log<DOCTITLE>bench %d<ABSTRACT>bench abstract<SECTION><STITLE>bench section<PARA>the www bench paragraph %d</MMFDOC>`, doc, doc)
			if _, err := parseFixture(s, sgmlText); err != nil {
				benchErr = err
				return
			}
			if err := col.Flush(); err != nil {
				benchErr = err
				return
			}
		}
	}))
	if benchErr != nil {
		return nil, benchErr
	}

	// Observability overhead A/B on the top-k path: interleaved
	// min-of-3 with obs recording on vs off. Min (not mean) because
	// scheduling noise only ever adds time.
	onNs, offNs := measureObsOverhead(col)
	if offNs > 0 {
		rep.ObsOverheadPct = (onNs - offNs) / offNs * 100
	}

	rep.StageLatency = stageSummaries()

	fmt.Fprintf(w, "EXP-BENCH perf snapshot (PR %d, %s, GOMAXPROCS=%d)\n",
		pr, rep.GoVersion, rep.GOMAXPROCS)
	names := make([]string, 0, len(rep.Benchmarks))
	for name := range rep.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := rep.Benchmarks[name]
		fmt.Fprintf(w, "  %-18s %12.0f ns/op %10d B/op %8d allocs/op\n",
			name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	fmt.Fprintf(w, "  topk: prune_rate=%.3f shards_skipped/query=%.2f (%d queries)\n",
		rep.TopK.PruneRate, rep.TopK.SkippedPerQ, rep.TopK.Queries)
	fmt.Fprintf(w, "  blockmax: blocks_skipped=%d postings_decoded=%d\n",
		rep.TopK.BlocksSkipped, rep.TopK.PostingsDecoded)
	fmt.Fprintf(w, "  obs overhead on topk path: %+.2f%% (target <= 3%%)\n", rep.ObsOverheadPct)
	return rep, nil
}

// AddMappedBench extends a report with the mmap serving numbers: it
// persists one sharded collection (same hot-block shape as RunBench's
// corpus, sealed by Compact), A/Bs the cold open heap vs mapped with
// testing.Benchmark, and measures steady-state top-k search over the
// mapping as Benchmarks["search_topk10_mapped"] so the regular
// regression tolerance covers the zero-copy decode path.
func AddMappedBench(w io.Writer, rep *BenchReport) error {
	dir, err := os.MkdirTemp("", "bench-mapped-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	shards := runtime.GOMAXPROCS(0)
	if shards < 2 {
		shards = 2
	}
	cfg := workload.DefaultConfig()
	cfg.Docs = 400
	corpus := workload.Generate(cfg)
	build, err := irs.NewEngineAt(dir)
	if err != nil {
		return err
	}
	coll, err := build.CreateCollectionShards("bench", nil, shards)
	if err != nil {
		return err
	}
	for i := range corpus.Docs {
		if err := coll.AddDocument(corpus.Docs[i].Name, corpus.Docs[i].SGML, nil); err != nil {
			return err
		}
	}
	hotText := strings.Repeat("www nii codec video highway ", 8)
	for i, added := uint64(0), 0; added < benchHotDocs; i++ {
		name := fmt.Sprintf("oid%d", 1<<40+i)
		if irs.ShardForExtID(name, shards) != 0 {
			continue
		}
		if err := coll.AddDocument(name, hotText, nil); err != nil {
			return err
		}
		added++
	}
	coll.Index().Compact()
	if err := build.Save(); err != nil {
		return err
	}
	st, err := os.Stat(dir + "/bench.irsc")
	if err != nil {
		return err
	}

	// Cold open A/B. Each iteration opens and closes the engine; the
	// OS page cache is warm after the first, so the numbers compare
	// parse work (full posting decode vs section tables only).
	var benchErr error
	openBench := func(mapped bool) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := irs.NewEngineAt(dir, irs.Options{Mapped: mapped})
				if err != nil {
					benchErr = err
					return
				}
				if err := e.Close(); err != nil {
					benchErr = err
					return
				}
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	mb := &MappedBench{FileBytes: st.Size()}
	mb.OpenHeapNs = openBench(false)
	mb.OpenMappedNs = openBench(true)
	if benchErr != nil {
		return benchErr
	}
	if mb.OpenMappedNs > 0 {
		mb.OpenSpeedup = mb.OpenHeapNs / mb.OpenMappedNs
	}

	eng, err := irs.NewEngineAt(dir, irs.Options{Mapped: true})
	if err != nil {
		return err
	}
	defer eng.Close()
	mc, err := eng.Collection("bench")
	if err != nil {
		return err
	}
	mb.MappedBytes = mc.Index().MappedBytes()
	mb.HeapBytes = mc.Index().HeapBytes()
	rep.Benchmarks["search_topk10_mapped"] = benchResult(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mc.SearchTopK("#sum(www nii sgml video codec highway)", 10); err != nil {
				benchErr = err
				return
			}
		}
	}))
	if benchErr != nil {
		return benchErr
	}
	rep.Mapped = mb

	r := rep.Benchmarks["search_topk10_mapped"]
	fmt.Fprintf(w, "  %-18s %12.0f ns/op %10d B/op %8d allocs/op\n",
		"search_topk10_mapped", r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	fmt.Fprintf(w, "  mapped: open heap=%.0fns mapped=%.0fns (%.1fx), %d/%d bytes mapped/heap of a %d-byte file\n",
		mb.OpenHeapNs, mb.OpenMappedNs, mb.OpenSpeedup, mb.MappedBytes, mb.HeapBytes, mb.FileBytes)
	return nil
}

// AddServingBench extends a report with the adaptive-serving numbers:
// one short zipfian query stream against the 2Q cache at a small
// entry budget (EXP-S7's workload shape, scaled down), and one async
// ingest burst whose adaptive coalescing window is sampled at peak.
func AddServingBench(w io.Writer, rep *BenchReport) error {
	sb := &ServingBench{
		CacheRequests: 2000,
		CacheHitRate:  make(map[string]float64),
	}
	cfg := workload.DefaultConfig()
	corpus := workload.Generate(cfg)
	pool := s7QueryPoolGen(cfg.Vocabulary)
	rng := rand.New(rand.NewSource(97))
	zipf := rand.NewZipf(rng, s7ZipfS, 1.0, uint64(len(pool)-1))
	stream := make([]int, sb.CacheRequests)
	for i := range stream {
		stream[i] = int(zipf.Uint64())
	}
	err := func() error {
		s, err := s7Open(server.Config{CacheSize: s7CacheBudget})
		if err != nil {
			return err
		}
		defer s.close()
		if err := s7Seed(s, corpus, ""); err != nil {
			return err
		}
		for _, idx := range stream {
			if _, err := s7Call(s.ts, "GET", s7SearchPath(pool[idx], s7K), nil); err != nil {
				return err
			}
		}
		cm := s.srv.CacheMetrics()
		sb.CacheHitRate["2q"] = s7HitRate(cm)
		sb.CacheEvictedCostSeconds = cm.EvictedCost
		return nil
	}()
	if err != nil {
		return err
	}

	// Adaptive coalescing window at peak: post one async burst and
	// sample /stats before draining (after a drain the controller
	// decays back toward the floor, which would be the boring number).
	s, err := s7Open(server.Config{})
	if err != nil {
		return err
	}
	defer s.close()
	if _, err := s7Call(s.ts, "POST", "/dtds", map[string]any{"name": "mmf", "dtd": workload.MMFDTD}); err != nil {
		return err
	}
	if _, err := s7Call(s.ts, "POST", "/collections", map[string]any{
		"name": "collPara", "spec": "ACCESS p FROM p IN PARA;", "policy": "async",
	}); err != nil {
		return err
	}
	docs := make([]string, len(corpus.Docs))
	for i := range corpus.Docs {
		docs[i] = corpus.Docs[i].SGML
	}
	for i := 0; i < 4; i++ {
		if _, err := s7Call(s.ts, "POST", "/documents", map[string]any{
			"dtd": "mmf", "documents": docs, "mode": "async",
		}); err != nil {
			return err
		}
	}
	out, err := s7Call(s.ts, "GET", "/stats", nil)
	if err != nil {
		return err
	}
	colls, _ := out["collections"].(map[string]any)
	coll, _ := colls["collPara"].(map[string]any)
	pipeline, _ := coll["pipeline"].(map[string]any)
	sb.CoalesceWindowMs, _ = pipeline["coalesce_window_ms"].(float64)
	if _, err := s7Call(s.ts, "POST", "/collections/collPara/drain", nil); err != nil {
		return err
	}

	rep.Serving = sb
	fmt.Fprintf(w, "  serving: cache hit rate 2q=%.3f (zipfian x%d, %d-entry budget), 2q evicted-cost %.3fs, burst coalesce window %.3fms\n",
		sb.CacheHitRate["2q"], sb.CacheRequests, s7CacheBudget, sb.CacheEvictedCostSeconds, sb.CoalesceWindowMs)
	return nil
}

// AddDurabilityBench extends a report with the durable-ingest
// numbers: EXP-S8's synchronous phase at reduced scale (per-document
// commits under each fsync policy), plus the wall clock of recovering
// the group run's crash image by replaying its log.
func AddDurabilityBench(w io.Writer, rep *BenchReport) error {
	root, err := os.MkdirTemp("", "bench-wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	cfg := workload.DefaultConfig()
	cfg.Docs = 120
	corpus := workload.Generate(cfg)
	db := &DurabilityBench{Docs: len(corpus.Docs)}
	crash := root + "/crash"

	variants := []struct {
		name   string
		noWAL  bool
		fsync  string
		copyTo string
		out    *float64
	}{
		{"off", true, "", "", &db.SyncOffMs},
		{"group", false, "group", crash, &db.SyncGroupMs},
		{"always", false, "always", "", &db.SyncAlwaysMs},
	}
	for _, v := range variants {
		out, err := s8Ingest(root+"/"+v.name, corpus, false, v.noWAL, v.fsync, v.copyTo)
		if err != nil {
			return err
		}
		*v.out = float64(out.elapsed.Microseconds()) / 1000
		if v.name == "group" {
			db.WALBytes = out.stats.Bytes
			db.WALAppends = out.stats.Appends
			db.WALFsyncs = out.stats.Syncs
		}
	}
	if db.SyncOffMs > 0 {
		db.GroupOverhead = db.SyncGroupMs / db.SyncOffMs
	}

	// Recovery: reopen the crash image like a restarted server —
	// replay is the whole open cost here, the image predates any
	// snapshot.
	start := time.Now()
	sys, err := docirs.OpenWith(crash, docirs.OpenOptions{})
	if err != nil {
		return err
	}
	db.RecoveryMs = float64(time.Since(start).Microseconds()) / 1000
	for _, r := range sys.RecoveryReports() {
		db.RecoveredOps += r.Replayed
	}
	if err := sys.Close(); err != nil {
		return err
	}

	rep.Durability = db
	fmt.Fprintf(w, "  durability: sync ingest off=%.0fms group=%.0fms (%.2fx) always=%.0fms; wal %dB/%d appends/%d fsyncs; recovery replayed %d ops in %.0fms\n",
		db.SyncOffMs, db.SyncGroupMs, db.GroupOverhead, db.SyncAlwaysMs,
		db.WALBytes, db.WALAppends, db.WALFsyncs, db.RecoveredOps, db.RecoveryMs)
	return nil
}

// measureObsOverhead interleaves short obs-on and obs-off runs of the
// top-k search and returns the minimum ns/op of each variant.
func measureObsOverhead(col *core.Collection) (onNs, offNs float64) {
	run := func() float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Errors are impossible here: the same query already ran
				// clean in the measured benchmark above.
				col.GetIRSResultTopK("#sum(www nii sgml video codec highway)", 10)
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	onNs, offNs = -1, -1
	defer obs.SetEnabled(true)
	for i := 0; i < 3; i++ {
		obs.SetEnabled(true)
		if v := run(); onNs < 0 || v < onNs {
			onNs = v
		}
		obs.SetEnabled(false)
		if v := run(); offNs < 0 || v < offNs {
			offNs = v
		}
	}
	return onNs, offNs
}

// stageSummaries digests the pipeline-stage histogram series.
func stageSummaries() map[string]obs.Summary {
	out := make(map[string]obs.Summary)
	for key, sum := range obs.Default.Summaries() {
		if strings.HasPrefix(key, "mmf_stage_seconds") && sum.Count > 0 {
			out[key] = sum
		}
	}
	return out
}

// WriteBenchReport writes the report as indented JSON.
func WriteBenchReport(path string, rep *BenchReport) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// LoadBenchReport reads a BENCH_*.json file.
func LoadBenchReport(path string) (*BenchReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &BenchReport{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// DiffBenchReports compares two reports benchmark by benchmark and
// returns the regressions: benchmarks whose ns/op grew by more than
// tolerance (a fraction; 0 selects the default 0.35 — generous,
// because CI runners are shared and noisy; the trajectory across
// several PRs is the signal, any single diff is a tripwire).
func DiffBenchReports(w io.Writer, old, new *BenchReport, tolerance float64) []string {
	if tolerance <= 0 {
		tolerance = 0.35
	}
	var regressions []string
	names := make([]string, 0, len(new.Benchmarks))
	for name := range new.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "bench diff: PR %d -> PR %d (tolerance %.0f%%)\n", old.PR, new.PR, tolerance*100)
	for _, name := range names {
		n := new.Benchmarks[name]
		o, ok := old.Benchmarks[name]
		if !ok || o.NsPerOp <= 0 {
			fmt.Fprintf(w, "  %-18s %12.0f ns/op   (new benchmark)\n", name, n.NsPerOp)
			continue
		}
		delta := (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		mark := ""
		if n.NsPerOp > o.NsPerOp*(1+tolerance) {
			mark = "  << REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)", name, o.NsPerOp, n.NsPerOp, delta))
		}
		fmt.Fprintf(w, "  %-18s %12.0f -> %10.0f ns/op (%+.1f%%)%s\n",
			name, o.NsPerOp, n.NsPerOp, delta, mark)
	}
	return regressions
}

// ValidateBenchReport sanity-checks a loaded report (the committed
// BENCH_*.json must stay loadable and meaningful for the next PR's
// diff).
func ValidateBenchReport(rep *BenchReport) error {
	if rep.PR <= 0 {
		return fmt.Errorf("bench report: pr = %d, want > 0", rep.PR)
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("bench report: no benchmarks")
	}
	for name, r := range rep.Benchmarks {
		if r.N <= 0 || r.NsPerOp <= 0 {
			return fmt.Errorf("bench report: %s has empty result (%+v)", name, r)
		}
	}
	if rep.TopK.Queries <= 0 {
		return fmt.Errorf("bench report: topk rates empty")
	}
	return nil
}
