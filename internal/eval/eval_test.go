package eval

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// Every experiment must run green and reproduce the paper's SHAPE
// claims (who wins, what separates, what ties). Absolute numbers are
// environment-dependent and recorded in EXPERIMENTS.md instead.

func TestRunF1Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunF1(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arch) != 3 {
		t.Fatalf("architectures = %d", len(res.Arch))
	}
	// All architectures answer the workload identically.
	for _, ar := range res.Arch[1:] {
		if ar.Results != res.Arch[0].Results {
			t.Errorf("%s results = %d, want %d", ar.Name, ar.Results, res.Arch[0].Results)
		}
	}
	// DBMS-control reuses buffered IRS results: strictly fewer IRS
	// evaluations than the stateless architectures.
	dbms := res.ByName("dbms-control")
	cm := res.ByName("control-module")
	if dbms == nil || cm == nil {
		t.Fatal("missing architecture rows")
	}
	if dbms.IRSSearches >= cm.IRSSearches {
		t.Errorf("dbms-control IRS evals %d >= control-module %d", dbms.IRSSearches, cm.IRSSearches)
	}
	// Only DBMS-control has the full capability row.
	if !dbms.Capabilities.DeclarativeMixedQueries || cm.Capabilities.DeclarativeMixedQueries {
		t.Error("capability matrix wrong")
	}
	if !strings.Contains(buf.String(), "EXP-F1") {
		t.Error("table missing")
	}
}

func TestRunF2Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunF2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MappingValid {
		t.Error("IRS-document -> object mapping invalid")
	}
	if !res.SharedQueryDisagrees {
		t.Error("collections did not answer at different granularities")
	}
	if len(res.Collections) != 2 {
		t.Fatalf("collections = %d", len(res.Collections))
	}
	para, doc := res.Collections[0], res.Collections[1]
	if para.IRSDocs <= doc.IRSDocs {
		t.Errorf("paragraph collection (%d docs) should outnumber document collection (%d)",
			para.IRSDocs, doc.IRSDocs)
	}
	// Abstract mode stores far less text than full paragraphs.
	if doc.TextBytes >= para.TextBytes {
		t.Errorf("abstract text %d >= paragraph text %d", doc.TextBytes, para.TextBytes)
	}
}

func TestRunF3Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunF3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Buffering: IRS evaluated once per distinct query only.
	if res.BufferedSearches > int64(res.Distinct) {
		t.Errorf("buffered searches %d > distinct queries %d", res.BufferedSearches, res.Distinct)
	}
	if res.UnbufferedSearches != int64(res.Queries) {
		t.Errorf("unbuffered searches = %d, want %d", res.UnbufferedSearches, res.Queries)
	}
	if res.HitRate < 0.5 {
		t.Errorf("hit rate = %v, want >= 0.5 under Zipf repetition", res.HitRate)
	}
	// Intra-query: many probes, few IRS evaluations.
	if res.IntraQueryProbes <= res.IntraQuerySearches {
		t.Errorf("intra-query probes %d <= searches %d", res.IntraQueryProbes, res.IntraQuerySearches)
	}
}

func TestRunF4Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunF4(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Claim 1: P4 is the top paragraph for #and(www nii).
	if res.TopPara != "P4" {
		t.Errorf("top paragraph = %s, want P4", res.TopPara)
	}
	// Claim 2: under Max, M2 ranks first...
	if res.Rankings["max"][0] != "M2" {
		t.Errorf("max ranking = %v, want M2 first", res.Rankings["max"])
	}
	// ...but M3 and M4 tie (the deficiency).
	maxVals := res.DocValues["max"]
	if d := maxVals["M3"] - maxVals["M4"]; d > 1e-9 || d < -1e-9 {
		t.Errorf("max should tie M3 (%v) and M4 (%v)", maxVals["M3"], maxVals["M4"])
	}
	// Claim 3: query-aware separates them: M2 > M3 > M4.
	qa := res.DocValues["query-aware"]
	if !(qa["M2"] > qa["M3"] && qa["M3"] > qa["M4"]) {
		t.Errorf("query-aware values M2=%v M3=%v M4=%v, want strictly decreasing",
			qa["M2"], qa["M3"], qa["M4"])
	}
	// And M1 (single semi-relevant paragraph) stays below M3.
	if qa["M1"] >= qa["M3"] {
		t.Errorf("query-aware M1=%v >= M3=%v", qa["M1"], qa["M3"])
	}
}

func TestRunT1Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunT1(&buf)
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Row("document")
	para := res.Row("paragraph")
	leaf := res.Row("leaf")
	abs := res.Row("doc-abstract")
	if doc == nil || para == nil || leaf == nil || abs == nil {
		t.Fatal("missing granularity rows")
	}
	// Finer granularity -> more IRS documents.
	if !(doc.IRSDocs < res.Row("section").IRSDocs &&
		res.Row("section").IRSDocs < para.IRSDocs &&
		para.IRSDocs <= leaf.IRSDocs) {
		t.Errorf("IRS doc counts not monotone: %d %d %d %d",
			doc.IRSDocs, res.Row("section").IRSDocs, para.IRSDocs, leaf.IRSDocs)
	}
	// Document-level cannot answer paragraph queries; paragraph can.
	if doc.ParaP10 >= 0 {
		t.Error("document granularity claims paragraph retrieval")
	}
	if para.ParaP10 < 0.3 {
		t.Errorf("paragraph granularity para P@10 = %v", para.ParaP10)
	}
	// Abstracts store less text than full documents.
	if abs.TextRatio >= doc.TextRatio {
		t.Errorf("abstract ratio %v >= full ratio %v", abs.TextRatio, doc.TextRatio)
	}
	// All granularities keep usable document retrieval.
	for _, row := range res.Rows {
		if row.DocMAP < 0.3 {
			t.Errorf("%s: doc MAP = %v", row.Granularity, row.DocMAP)
		}
	}
}

func TestRunT2Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunT2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Same filter -> both strategies return the same row count.
	for i := 0; i < len(res.Rows); i += 2 {
		if res.Rows[i].Rows != res.Rows[i+1].Rows {
			t.Errorf("%s: independent %d rows vs irs-first %d rows",
				res.Rows[i].Filter, res.Rows[i].Rows, res.Rows[i+1].Rows)
		}
	}
	// Selectivity decreases across the filter set.
	if !(res.Rows[0].Selectivity > res.Rows[2].Selectivity &&
		res.Rows[2].Selectivity > res.Rows[4].Selectivity) {
		t.Errorf("selectivities not decreasing: %v %v %v",
			res.Rows[0].Selectivity, res.Rows[2].Selectivity, res.Rows[4].Selectivity)
	}
}

func TestRunT3Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunT3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CandidateMatch {
		t.Error("candidate sets differ between placements")
	}
	if res.MaxValueDelta > 1e-9 {
		t.Errorf("operator semantics drift: max delta %v", res.MaxValueDelta)
	}
	// Warm OODBMS-side combination asks the IRS nothing.
	if res.DBSideEvals != 0 {
		t.Errorf("OODBMS-side combination evaluated %d IRS queries", res.DBSideEvals)
	}
	if res.IRSSideEvals != int64(res.Pairs) {
		t.Errorf("IRS-side evals = %d, want %d", res.IRSSideEvals, res.Pairs)
	}
}

func TestRunT4Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunT4(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// At high update:query ratio the deferred policies apply fewer
	// ops than immediate (collapsing bursts).
	imm := res.Row("50:1", "immediate")
	onq := res.Row("50:1", "on-query")
	man := res.Row("50:1", "manual")
	if imm == nil || onq == nil || man == nil {
		t.Fatal("missing rows")
	}
	if onq.OpsApplied >= imm.OpsApplied {
		t.Errorf("on-query applied %d >= immediate %d at 50:1", onq.OpsApplied, imm.OpsApplied)
	}
	if onq.OpsCancelled == 0 {
		t.Error("no cancellations under deferral at 50:1")
	}
	// Flush counts: immediate flushes per burst, on-query only per
	// query round.
	if imm.Flushes <= onq.Flushes {
		t.Errorf("immediate flushes %d <= on-query flushes %d", imm.Flushes, onq.Flushes)
	}
}

func TestRunT5Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunT5(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The document index costs real extra space ([SAZ94]'s problem).
	if res.OverheadPct < 10 {
		t.Errorf("doc-index overhead = %.1f%%, expected substantial", res.OverheadPct)
	}
	// Derivation keeps document retrieval usable.
	if res.DeriveMAP < 0.3 {
		t.Errorf("derive MAP = %v", res.DeriveMAP)
	}
	if res.DualMAP < 0.3 {
		t.Errorf("dual MAP = %v", res.DualMAP)
	}
}

func TestRunT6Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunT6(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ResultsEqual {
		t.Errorf("file exchange altered results (max delta %v)", res.MaxScoreDelta)
	}
}

func TestRunT7Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunT7(&buf)
	if err != nil {
		t.Fatal(err)
	}
	inf := res.Row("inference-net")
	vec := res.Row("vector")
	boolRow := res.Row("boolean")
	if inf == nil || vec == nil || boolRow == nil {
		t.Fatal("missing model rows")
	}
	// Probabilistic and vector models rank; boolean cannot.
	if !inf.Ranks || !vec.Ranks {
		t.Error("graded models report no ranking")
	}
	if boolRow.Ranks {
		t.Error("boolean model claims graded scores")
	}
	// All paradigms find the planted paragraphs reasonably well.
	for _, r := range res.Rows {
		if r.P10 < 0.3 {
			t.Errorf("%s: P@10 = %v", r.Model, r.P10)
		}
	}
}

func TestRunT8Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunT8(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The open-world paradox: #not(www) only returns www-containing
	// paragraphs.
	if !res.IRSNotSubset {
		t.Error("inference-net #not escaped its candidate set")
	}
	// Closed-world NOT is (near-)complementary and much larger.
	if res.VQLNotRows <= res.IRSNotRows {
		t.Errorf("VQL NOT rows %d <= IRS #not rows %d", res.VQLNotRows, res.IRSNotRows)
	}
	if !res.Disjoint {
		t.Error("VQL NOT overlapped the matching set")
	}
	// Boolean #not complements over all IRS documents.
	if res.BoolNotRows != res.TotalParas-res.WWWParas {
		t.Errorf("boolean #not = %d, want %d", res.BoolNotRows, res.TotalParas-res.WWWParas)
	}
}

func TestRunA1Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunA1(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byPenalty := make(map[float64]A1Row, len(res.Rows))
	for _, r := range res.Rows {
		byPenalty[r.Penalty] = r
	}
	// The default 0.9 sits inside the valid interval.
	if r := byPenalty[0.9]; !r.StrictOrder {
		t.Errorf("default penalty 0.9 lost the ordering: %+v", r)
	}
	// Below the floor bound the M3/M4 separation collapses...
	if r := byPenalty[0.5]; r.M3SeparatedFromM4 {
		t.Errorf("penalty 0.5 should collapse M3 onto the default floor: %+v", r)
	}
	// ...and M2 stays on top throughout the sweep (co-occurrence is
	// never discounted).
	for _, r := range res.Rows {
		if r.M2 < r.M3-1e-9 {
			t.Errorf("penalty %.2f: M2 %v < M3 %v", r.Penalty, r.M2, r.M3)
		}
	}
}

func TestRunX1Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunX1(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Passage retrieval separates colocated discussion from
	// dispersed mention more sharply than whole-document scoring.
	if res.PassGap <= res.WholeGap {
		t.Errorf("passage gap %v <= whole-document gap %v", res.PassGap, res.WholeGap)
	}
	// And its ranking quality on the "discussed together" task is at
	// least as good.
	if res.PassAP < res.WholeAP-1e-9 {
		t.Errorf("passage AP %v < whole-doc AP %v", res.PassAP, res.WholeAP)
	}
	if res.PassageP < 0.8 {
		t.Errorf("passage P@%d = %v", res.Relevant, res.PassageP)
	}
}

func TestRunA2Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunA2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Corpus and index grow monotonically with size.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Paras <= res.Rows[i-1].Paras {
			t.Errorf("paras not growing: %v", res.Rows)
		}
		if res.Rows[i].IndexBytes <= res.Rows[i-1].IndexBytes {
			t.Errorf("index bytes not growing: %v", res.Rows)
		}
	}
	// Warm queries stay cheap at every size (buffer hit).
	for _, r := range res.Rows {
		if r.WarmQuery > r.ColdQuery*10 {
			t.Errorf("docs=%d: warm %v unreasonably slow vs cold %v", r.Docs, r.WarmQuery, r.ColdQuery)
		}
	}
}

func TestRunS1Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunS1(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The engineering claim: partitioning must not change retrieval
	// results. (Timings are environment-dependent and only logged.)
	if !res.RankingsIdentical {
		t.Error("sharded rankings differ from single-shard rankings")
	}
	if res.Shards != 2 {
		t.Errorf("shards = %d, want 2", res.Shards)
	}
	if res.SingleRead <= 0 || res.ShardedRead <= 0 || res.SingleMixed <= 0 || res.ShardedMixed <= 0 {
		t.Errorf("missing timings: %+v", res)
	}
	if !strings.Contains(buf.String(), "EXP-S1") {
		t.Error("table missing")
	}
}

func TestRunS2Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunS2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The correctness claims EXP-S2 makes in-repo:
	// 1. The async pipeline must not change retrieval results.
	if !res.RankingsIdentical {
		t.Error("async-ingested rankings differ from sync-ingested rankings")
	}
	// 2. The commit-lock hold A/B (staged vs analysis under the lock)
	// ran; how the two compare is wall clock and only reported.
	if res.LegacyHoldMS <= 0 || res.StagedHoldMS <= 0 {
		t.Errorf("hold measurements missing: %+v", res)
	}
	// 3. Group commits actually grouped: the async run must have
	// committed its ops in fewer batches than the sync run flushed.
	if res.AsyncGroupCommits == 0 || res.AsyncGroupCommits >= res.SyncFlushes {
		t.Errorf("no group-commit advantage: %d async groups vs %d sync flushes",
			res.AsyncGroupCommits, res.SyncFlushes)
	}
	if res.FlushErrors != 0 {
		t.Errorf("flush errors: %d", res.FlushErrors)
	}
	if res.SyncElapsed <= 0 || res.AsyncElapsed <= 0 || res.TotalOps == 0 {
		t.Errorf("missing measurements: %+v", res)
	}
	if !strings.Contains(buf.String(), "EXP-S2") {
		t.Error("table missing")
	}
}

func TestRunS3Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunS3(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance property EXP-S3 gates in-repo: for all four
	// models and k in {10, 100}, the streaming top-k result is exactly
	// the first k entries of the exhaustive ranking, bit-equal scores
	// included. (Timings are environment-dependent and only logged.)
	if !res.RankingsIdentical {
		t.Error("top-k rankings differ from the exhaustive prefix")
	}
	// The pruning machinery must actually engage on the synthetic
	// corpus — a zero pruned count would mean the bounds are vacuous.
	if res.Pruned == 0 {
		t.Error("no candidates pruned")
	}
	if res.Scored == 0 {
		t.Error("no candidates scored")
	}
	if res.Exhaustive <= 0 || res.Top10 <= 0 || res.Top100 <= 0 ||
		res.PassageExhaustive <= 0 || res.PassageTop10 <= 0 {
		t.Errorf("missing timings: %+v", res)
	}
	if !strings.Contains(buf.String(), "EXP-S3") {
		t.Error("table missing")
	}
}

// TestRunS4Shape is the CI gate for cross-shard threshold sharing
// (ISSUE 5 acceptance): rankings bit-identical to the exhaustive
// prefix with sharing on, candidates scored strictly below the
// per-shard-only baseline at k=10, and at least one whole shard scan
// skipped by the shared threshold at >= 4 shards.
func TestRunS4Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunS4(&buf, 4)
	if err != nil {
		t.Fatal(err) // includes the in-run ranking-equality gate
	}
	if !res.RankingsIdentical {
		t.Error("top-k rankings differ from the exhaustive prefix")
	}
	if res.SharedScored >= res.BaselineScored {
		t.Errorf("threshold sharing scored %d candidates, not strictly below the per-shard baseline %d",
			res.SharedScored, res.BaselineScored)
	}
	if res.ShardsSkipped == 0 {
		t.Error("no shard scan skipped by the shared threshold at 4 shards")
	}
	if res.BaselineTime <= 0 || res.SharedTime <= 0 {
		t.Errorf("missing timings: %+v", res)
	}
	if !strings.Contains(buf.String(), "EXP-S4") {
		t.Error("table missing")
	}
}

func TestRunS5Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunS5(&buf, 4)
	if err != nil {
		t.Fatal(err) // includes the exactness, block-skip and compression gates
	}
	if !res.RankingsIdentical {
		t.Error("top-k rankings differ from the exhaustive prefix")
	}
	if res.BlocksSkipped == 0 {
		t.Error("no compressed block left undecoded by block-max bounds")
	}
	if res.BlockMaxDecoded >= res.BaselineDecoded {
		t.Errorf("block-max decoded %d posting payloads, not below the whole-list baseline %d",
			res.BlockMaxDecoded, res.BaselineDecoded)
	}
	if res.CompressionRatio < 3 {
		t.Errorf("compression ratio %.2fx below the 3x gate", res.CompressionRatio)
	}
	if res.BaselineTime <= 0 || res.BlockMaxTime <= 0 {
		t.Errorf("missing timings: %+v", res)
	}
	if !strings.Contains(buf.String(), "EXP-S5") {
		t.Error("table missing")
	}
}

func TestRunS6Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunS6(&buf, 4)
	if err != nil {
		t.Fatal(err) // includes the equality and residency gates
	}
	if !res.RankingsIdentical {
		t.Error("heap and mapped rankings diverge")
	}
	if res.MappedBytes <= 0 {
		t.Errorf("mapped collection reports %d mapped bytes, want > 0", res.MappedBytes)
	}
	if res.FileBytes <= 4096 {
		t.Errorf("v5 file only %d bytes, smaller than one page", res.FileBytes)
	}
	if res.HeapSearch <= 0 || res.MappedSearch <= 0 {
		t.Errorf("missing timings: %+v", res)
	}
	if !strings.Contains(buf.String(), "EXP-S6") {
		t.Error("table missing")
	}
}

func TestRunS7Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunS7(&buf)
	if err != nil {
		t.Fatal(err) // includes the scored-reduction and equality gates
	}
	if !res.CacheRankingsSame || !res.CoalesceRankingsSame {
		t.Errorf("rankings diverge: cache same=%v coalesce same=%v",
			res.CacheRankingsSame, res.CoalesceRankingsSame)
	}
	if res.ScoredRatio > 0.25 {
		t.Errorf("2q scored %.1f%% of the uncached server's candidates, want <= 25%%", 100*res.ScoredRatio)
	}
	// 2q may trade raw hit rate for scored reduction (it prefers
	// keeping expensive entries), so only sanity-check the rate.
	if res.HitRate2Q <= 0 || res.HitRate2Q >= 1 {
		t.Errorf("hit rate out of range: 2q=%.3f", res.HitRate2Q)
	}
	if res.ScoredNoCache <= 0 || res.Scored2Q <= 0 {
		t.Errorf("scored counters empty: %+v", res)
	}
	if res.FixedElapsed <= 0 || res.AdaptiveElapsed <= 0 {
		t.Errorf("missing ingest timings: %+v", res)
	}
	if !strings.Contains(buf.String(), "EXP-S7") {
		t.Error("table missing")
	}
}

func TestRunS8Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunS8(&buf)
	if err != nil {
		t.Fatal(err) // includes the ranking-equality, replay-floor and serving-surface gates
	}
	if !res.RankingsSame || !res.RecoveredSame {
		t.Errorf("rankings diverge: variants same=%v recovered same=%v",
			res.RankingsSame, res.RecoveredSame)
	}
	if res.RecoveredOps < 4000 {
		t.Errorf("recovery replayed %d ops, want >= 4000", res.RecoveredOps)
	}
	if res.WALBytes <= 0 || res.WALAppends <= 0 || res.WALFsyncs <= 0 {
		t.Errorf("wal counters empty: bytes=%d appends=%d fsyncs=%d",
			res.WALBytes, res.WALAppends, res.WALFsyncs)
	}
	for _, m := range []map[string]time.Duration{res.Sync, res.Async} {
		for _, name := range []string{"off", "group", "always"} {
			if m[name] <= 0 {
				t.Errorf("missing %s ingest timing", name)
			}
		}
	}
	if !res.StatsWAL || !res.MetricsWAL {
		t.Errorf("serving surface incomplete: stats=%v metrics=%v", res.StatsWAL, res.MetricsWAL)
	}
	if !strings.Contains(buf.String(), "EXP-S8") {
		t.Error("table missing")
	}
}
