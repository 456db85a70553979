package eval

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/irs"
	"repro/internal/oodb"
	"repro/internal/workload"
)

// EXP-S2 — synchronous vs asynchronous ingest pipeline. PR 2 left
// analysis (text derivation + tokenization) inside the flush path and
// every flush synchronous with the caller; the staged pipeline splits
// flushing into a parallel analyze stage that runs outside any lock
// and a short commit stage that only merges pre-built postings, and
// PropagateAsync hands the whole pipeline to a per-collection
// background flusher with group-commit coalescing. This experiment
// drives the same concurrent update workload through both
// configurations — PropagateImmediately (every committed update
// propagates synchronously inside the mutator) and PropagateAsync
// (mutators return immediately; the flusher group-commits) — then
// drains and verifies the rankings are bit-identical, so the
// throughput gain has no retrieval-quality cost. It also reports
// where flush time went: the commit lock is now held only for the
// commit stage, where the pre-refactor flush held it for analysis
// too.

// S2Result is the outcome of EXP-S2.
type S2Result struct {
	GOMAXPROCS int
	Writers    int
	Rounds     int
	Paras      int
	TotalOps   int

	SyncElapsed    time.Duration
	AsyncElapsed   time.Duration // includes the final drain
	SyncOpsPerSec  float64
	AsyncOpsPerSec float64
	Speedup        float64

	RankingsIdentical bool

	// Pipeline shape of the async run.
	SyncFlushes       int64
	AsyncGroupCommits int64
	AsyncAvgGroup     float64

	// Where the async run's flush time went (pipeline stats): the
	// commit stage is what holds the index's commit lock, the analyze
	// stage runs outside it.
	AnalyzeMS float64
	CommitMS  float64

	// Measured commit-lock hold A/B: the same documents committed as
	// one batch through the pre-refactor path (analysis inside the
	// batch, i.e. under the commit lock) and through the staged path
	// (Analyze first, merge pre-built postings inside). Best of
	// holdReps runs each.
	LegacyHoldMS float64
	StagedHoldMS float64

	FlushErrors int64
}

// s2Queries cover the operator families over the planted topics.
var s2Queries = []string{
	"www",
	"#and(www nii)",
	"#or(nii #and(sgml markup))",
	"#wsum(2 www 1 video)",
	"#sum(www nii sgml video audio)",
	"#phrase(digital library)",
}

// s2Topics are planted into updated paragraph texts so the query set
// keeps discriminating after the update storm.
var s2Topics = []string{
	"www", "nii", "sgml markup", "video", "audio", "digital library",
}

// s2Text is the deterministic final-state function: paragraph i's
// text after round r is identical no matter which configuration (or
// writer interleaving) produced it.
func s2Text(i, r int) string {
	return fmt.Sprintf("revision %d the %s paragraph number %d", r, s2Topics[i%len(s2Topics)], i)
}

// RunS2 executes EXP-S2.
func RunS2(w io.Writer) (*S2Result, error) {
	cfg := workload.DefaultConfig()
	cfg.Docs = 16
	corpus := workload.Generate(cfg)
	res := &S2Result{
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Rounds:            6,
		RankingsIdentical: true,
	}
	res.Writers = res.GOMAXPROCS
	if res.Writers < 2 {
		res.Writers = 2
	}

	type config struct {
		name string
		opts core.Options
	}
	configs := []config{
		{"sync-immediate", core.Options{Policy: core.PropagateImmediately}},
		{"async-pipeline", core.Options{Policy: core.PropagateAsync, AsyncCoalesceMin: time.Millisecond, AsyncCoalesceMax: time.Millisecond}},
	}
	type outcome struct {
		col     *core.Collection
		setup   *Setup
		elapsed time.Duration
		scores  []map[oodb.OID]float64
	}
	outcomes := make([]outcome, len(configs))
	for ci, c := range configs {
		s, err := newSetupWithDTD(workload.MMFDTD, corpus)
		if err != nil {
			return nil, err
		}
		col, err := s.NewCollection("collPara", "ACCESS p FROM p IN PARA;", c.opts)
		if err != nil {
			return nil, err
		}
		// Text leaves of every paragraph, in deterministic corpus
		// order: the update workload's targets.
		var leaves []oodb.OID
		for _, doc := range s.DocOIDs {
			for _, para := range s.ParasOf(doc) {
				kids := s.Store.Children(para)
				if len(kids) > 0 {
					leaves = append(leaves, kids[0])
				}
			}
		}
		res.Paras = len(leaves)
		elapsed, err := timeIt(func() error {
			var wg sync.WaitGroup
			errc := make(chan error, res.Writers)
			for wr := 0; wr < res.Writers; wr++ {
				wg.Add(1)
				go func(wr int) {
					defer wg.Done()
					for r := 0; r < res.Rounds; r++ {
						for i := wr; i < len(leaves); i += res.Writers {
							if err := s.Store.SetText(leaves[i], s2Text(i, r)); err != nil {
								errc <- err
								return
							}
						}
					}
				}(wr)
			}
			wg.Wait()
			close(errc)
			if err := <-errc; err != nil {
				return err
			}
			// The async configuration pays its visibility barrier
			// inside the measured window — the comparison stays fair.
			return col.Drain()
		})
		if err != nil {
			return nil, err
		}
		var scores []map[oodb.OID]float64
		for _, q := range s2Queries {
			sc, err := col.GetIRSResult(q)
			if err != nil {
				return nil, err
			}
			scores = append(scores, sc)
		}
		outcomes[ci] = outcome{col: col, setup: s, elapsed: elapsed, scores: scores}
	}

	res.TotalOps = res.Paras * res.Rounds
	res.SyncElapsed = outcomes[0].elapsed
	res.AsyncElapsed = outcomes[1].elapsed
	if s := res.SyncElapsed.Seconds(); s > 0 {
		res.SyncOpsPerSec = float64(res.TotalOps) / s
	}
	if s := res.AsyncElapsed.Seconds(); s > 0 {
		res.AsyncOpsPerSec = float64(res.TotalOps) / s
	}
	if res.AsyncElapsed > 0 {
		res.Speedup = float64(res.SyncElapsed) / float64(res.AsyncElapsed)
	}

	// Ranking equality: same OIDs (the two systems load the corpus
	// identically, so OIDs coincide), same order, bit-equal scores.
	for qi := range s2Queries {
		a, b := outcomes[0].scores[qi], outcomes[1].scores[qi]
		if len(a) != len(b) {
			res.RankingsIdentical = false
			continue
		}
		ra, rb := rankOIDs(a), rankOIDs(b)
		for i := range ra {
			if ra[i] != rb[i] || a[ra[i]] != b[rb[i]] {
				res.RankingsIdentical = false
				break
			}
		}
	}

	syncStats := outcomes[0].col.Stats().Snapshot()
	asyncStats := outcomes[1].col.Stats().Snapshot()
	res.SyncFlushes = syncStats.Flushes
	res.AsyncGroupCommits = asyncStats.GroupCommits
	if asyncStats.GroupCommits > 0 {
		res.AsyncAvgGroup = float64(asyncStats.GroupedOps) / float64(asyncStats.GroupCommits)
	}
	res.AnalyzeMS = float64(asyncStats.AnalyzeNanos) / 1e6
	res.CommitMS = float64(asyncStats.CommitNanos) / 1e6
	res.FlushErrors = syncStats.FlushErrors + asyncStats.FlushErrors

	if err := res.measureCommitHold(); err != nil {
		return nil, err
	}

	// Stop background machinery before the setups go out of scope.
	for _, o := range outcomes {
		if err := o.setup.Coupling.Close(); err != nil {
			return nil, err
		}
	}

	tab := &Table{
		Title: fmt.Sprintf("EXP-S2: sync vs async ingest pipeline, %d paras × %d rounds, %d writers (GOMAXPROCS %d)",
			res.Paras, res.Rounds, res.Writers, res.GOMAXPROCS),
		Header: []string{"configuration", "elapsed", "ops/s", "flushes/groups", "avg group"},
	}
	tab.AddRow("sync (immediate)",
		fms(float64(res.SyncElapsed.Microseconds())/1000),
		fmt.Sprintf("%.0f", res.SyncOpsPerSec),
		fmt.Sprintf("%d", res.SyncFlushes), "1.0")
	tab.AddRow("async (pipeline)",
		fms(float64(res.AsyncElapsed.Microseconds())/1000),
		fmt.Sprintf("%.0f", res.AsyncOpsPerSec),
		fmt.Sprintf("%d", res.AsyncGroupCommits),
		fmt.Sprintf("%.1f", res.AsyncAvgGroup))
	tab.AddRow("speedup", fmt.Sprintf("%.2fx", res.Speedup), "-", "-", "-")
	tab.Fprint(w)
	fmt.Fprintf(w, "commit-lock hold, same %d docs as one batch (best of %d): staged %.2fms vs pre-refactor analyze-under-lock %.2fms\n",
		res.Paras, holdReps, res.StagedHoldMS, res.LegacyHoldMS)
	fmt.Fprintf(w, "async-run pipeline split: analyze %.2fms outside the lock, commit %.2fms inside\n", res.AnalyzeMS, res.CommitMS)
	fmt.Fprintf(w, "rankings identical across pipelines: %v; flush errors: %d\n\n",
		res.RankingsIdentical, res.FlushErrors)
	return res, nil
}

// holdReps is how many times each commit-hold variant runs; the best
// (minimum) time is kept, damping scheduler noise.
const holdReps = 5

// measureCommitHold measures — rather than derives — the commit-lock
// hold reduction: the identical final-state documents are committed
// as one irs.Batch through the legacy path (Batch.Add, which analyzes
// under the commit lock exactly as the pre-refactor Flush did) and
// through the staged path (Analyze outside, Batch.AddAnalyzed
// inside). Only the time inside the batch — the window during which
// no snapshot can be acquired — is measured.
func (res *S2Result) measureCommitHold() error {
	engine := irs.NewEngine()
	type variant struct {
		name   string
		staged bool
		best   *float64
	}
	variants := []variant{
		{"legacy", false, &res.LegacyHoldMS},
		{"staged", true, &res.StagedHoldMS},
	}
	for _, v := range variants {
		best := 0.0
		for rep := 0; rep < holdReps; rep++ {
			c, err := engine.CreateCollection(fmt.Sprintf("hold-%s-%d", v.name, rep), nil)
			if err != nil {
				return err
			}
			var analyzed []*irs.AnalyzedDoc
			if v.staged {
				for i := 0; i < res.Paras; i++ {
					analyzed = append(analyzed,
						c.Analyze(fmt.Sprintf("p%04d", i), s2Text(i, res.Rounds-1), nil))
				}
			}
			hold, err := timeIt(func() error {
				return c.Batch(func(b *irs.Batch) error {
					for i := 0; i < res.Paras; i++ {
						if v.staged {
							if _, err := b.AddAnalyzed(analyzed[i]); err != nil {
								return err
							}
						} else if _, err := b.Add(fmt.Sprintf("p%04d", i), s2Text(i, res.Rounds-1), nil); err != nil {
							return err
						}
					}
					return nil
				})
			})
			if err != nil {
				return err
			}
			ms := float64(hold.Microseconds()) / 1000
			if rep == 0 || ms < best {
				best = ms
			}
		}
		*v.best = best
	}
	return nil
}
