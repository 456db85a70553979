package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/workload"
)

// execute is one whole run: set-up, warm-up, measurement, checks,
// crash/restart cycles, shutdown, and either the end-to-end figures
// (untraced) or the per-layer ledger (traced).
func (r *run) execute() (*result, error) {
	r.corpus = workload.Generate(corpusConfig(r.cfg.seed, r.cfg.docs))
	r.sgmlBytes = r.corpus.TextBytes()
	r.record.Paragraphs = r.corpus.TotalParas()
	r.record.SGMLBytes = r.sgmlBytes

	for i := 0; i < r.cfg.setups; i++ {
		if i > 0 {
			if err := r.tearDown(); err != nil {
				return nil, err
			}
		}
		s, err := r.setUp(i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		r.record.SetupSeconds = append(r.record.SetupSeconds, s)
	}
	if err := r.discover(); err != nil {
		return nil, err
	}
	tr, err := r.prepare()
	if err != nil {
		return nil, err
	}
	tr.run(r.cfg.warmup)

	var live *liveStats
	if r.cfg.trace {
		if r.subs == nil { // the traced pass probes statements on every workload
			if r.subs, err = r.calibrate(subQueryTexts(r.cfg.seed)); err != nil {
				return nil, err
			}
		}
		if live, err = r.watch(); err != nil {
			return nil, err
		}
	}
	ph := r.measure(tr, time.Duration(r.cfg.seconds*float64(time.Second)))
	if live != nil {
		if err := live.stop(); err != nil {
			return nil, err
		}
	}
	rss, err := r.proc.peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.record.Kinds = map[string]kindSummary{}
	for kind := uint8(0); kind < numKinds; kind++ {
		n, ok := count(ph, kind)
		if n > 0 {
			lat := sortedLatencies(ph, kind)
			var lags []float64
			for _, s := range ph.samples {
				if s.kind == kind {
					lags = append(lags, float64(s.lag)/1e6)
				}
			}
			sort.Float64s(lags)
			r.record.Kinds[kindNames[kind]] = kindSummary{n, n - ok, percentile(lat, 0.50), percentile(lat, 0.90), percentile(lat, 0.95), percentile(lags, 0.95)}
		}
		if isAck(kind) {
			continue
		}
		r.attempted += n
		if n > ok {
			r.fail(n-ok, "%d of %d %s requests failed or answered wrongly", n-ok, n, kindNames[kind])
		}
	}

	orc, err := r.askOracle()
	if err != nil {
		return nil, err
	}
	if err := r.crashCycles(ph.writer); err != nil {
		return nil, err
	}
	if err := r.proc.stop(syscall.SIGTERM); err != nil {
		return nil, err
	}
	r.setProc(nil)
	disk, irsBytes, walBytes, err := dirBytes(r.dbDir)
	if err != nil {
		return nil, err
	}
	if ph.writer != nil {
		for i := range ph.writer.lanes {
			for _, d := range ph.writer.lanes[i].docs {
				if !d.deleted {
					r.sgmlBytes += int64(d.bytes)
				}
			}
		}
	}

	values := map[string]float64{}
	specs := r.cfg.contract.EndToEnd
	if r.cfg.trace {
		specs = r.cfg.contract.PerLayer
		if err := r.ledger(values, ph, live, disk, irsBytes, walBytes); err != nil {
			return nil, err
		}
		values["failed_share"] = float64(r.failed) / float64(r.attempted)
	} else {
		if err := r.verify(orc); err != nil {
			return nil, err
		}
		if err := r.endToEnd(values, ph, rss, disk); err != nil {
			return nil, err
		}
	}
	metrics, err := fill(specs, values)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	r.record.Result = res
	return res, nil
}

// endToEnd fills in the user-visible figures of the untraced run.
func (r *run) endToEnd(values map[string]float64, ph phase, rss float64, disk int64) error {
	// As many equal time windows, up to five, as leave every window the
	// samples a median needs; one window that has not fails the run.
	w := 5
	for ; w > 1; w-- {
		enough := true
		for _, win := range latencies(ph, r.spec.kind, w) {
			enough = enough && supports(len(win), 0.50)
		}
		if enough {
			break
		}
	}
	var err error
	values["p50_ms"], r.record.WindowCounts, err = windowed(latencies(ph, r.spec.kind, w), 0.50, r.cfg.lenient)
	if err != nil {
		return fmt.Errorf("p50_ms of %s: %w", kindNames[r.spec.kind], err)
	}
	// Completed correct requests over the time they took: up to the last
	// completion, which under an open loop is not the phase length.
	done, last := 0, time.Duration(0)
	for _, s := range ph.samples {
		if isAck(s.kind) || !s.ok {
			continue
		}
		done++
		end := s.at
		if r.spec.open {
			end += s.lat
		}
		last = max(last, end)
	}
	values["ops_per_s"] = float64(done) / last.Seconds()
	values["setup_s"] = median(r.record.SetupSeconds)
	values["reopen_s"] = median(r.record.ReopenSecs)
	values["rss_peak_mb"] = rss
	values["disk_bytes_per_text_byte"] = float64(disk) / float64(r.sgmlBytes)
	return nil
}

// crashCycles kills the server with SIGKILL and restarts it over the
// same files, timing kill → first correct search. Before the first
// kill of a writing workload the propagation queues are drained and
// the group fsync window is waited out: the audit that follows the
// first restart checks that what was acknowledged and made durable
// survives, not how much of an open window a crash can lose.
func (r *run) crashCycles(w *writer) error {
	if w != nil {
		if err := r.ctl.doJSON("POST", "/collections/collPara/drain", nil, nil); err != nil {
			return err
		}
		if err := r.ctl.doJSON("POST", "/collections/collDoc/flush", nil, nil); err != nil {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
	for i := 0; i < r.cfg.cycles; i++ {
		t0 := time.Now()
		if err := r.proc.stop(syscall.SIGKILL); err != nil {
			return err
		}
		if err := r.start(r.spec.mapped, r.extraFlags()...); err != nil {
			return fmt.Errorf("restart %d: %w", i, err)
		}
		if err := r.ready(); err != nil {
			return fmt.Errorf("restart %d: %w", i, err)
		}
		r.record.ReopenSecs = append(r.record.ReopenSecs, time.Since(t0).Seconds())
		if i == 0 && r.cfg.trace {
			stats, err := getStats(r.ctl)
			if err != nil {
				return err
			}
			r.recovered = collSum(stats, "wal", "recovered_records")
		}
		if i == 0 && w != nil {
			if err := r.audit(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// audit checks every acknowledged write against the restarted server:
// a stored document's token finds it, a deleted document's token finds
// nothing, and the latest edit of a paragraph finds that paragraph.
func (r *run) audit(w *writer) error {
	tokenHits := func(token string) (*searchReply, error) {
		r.attempted++
		return r.ctl.search("collPara", token, searchLimit)
	}
	for i := range w.lanes {
		for _, d := range w.lanes[i].docs {
			rep, err := tokenHits(d.token)
			if err != nil {
				return err
			}
			if d.deleted && len(rep.Results) != 0 {
				r.fail(1, "deleted document %s still searchable by %s after crash", d.oid, d.token)
			}
			if !d.deleted && len(rep.Results) != 1 {
				r.fail(1, "acknowledged document %s: %d hits for %s after crash", d.oid, len(rep.Results), d.token)
			}
		}
		for target, token := range w.lanes[i].lastEdit {
			rep, err := tokenHits(token)
			if err != nil {
				return err
			}
			if len(rep.Results) != 1 || rep.Results[0].ID != w.paraOIDs[target] {
				r.fail(1, "acknowledged edit of %s not searchable by %s after crash", w.paraOIDs[target], token)
			}
		}
	}
	return nil
}

// oracle is what the live server answered to the sampled requests,
// kept to be compared with an in-process evaluation of the same
// database files after shutdown.
type oracle struct {
	searches   []string // IRS queries asked of collPara
	hits       [][]searchHit
	statements []mixedStmt
	rows       [][]string // each statement's first column, sorted
}

const oracleSample = 200

// askOracle sends the fixed sample to the live server. Each request is
// sent twice and the two answers must agree (the second comes from the
// query cache); planted-term searches must return only paragraphs the
// corpus generator marked relevant.
func (r *run) askOracle() (*oracle, error) {
	o := &oracle{}
	if r.spec.open {
		return o, nil // data changes under the reader; probes and the audit are the check
	}
	rng := rand.New(rand.NewSource(r.cfg.seed ^ 0x0bac1e))
	cachedTwins := 0
	switch r.spec.kind {
	case kSearch:
		size := coldPoolSize
		if r.spec.warm {
			size = hotPoolSize
		}
		pool := searchPool(r.cfg.seed, size)
		for i := 0; i < oracleSample; i++ {
			q := pool[rng.Intn(len(pool))]
			first, err := r.ctl.search("collPara", q, searchLimit)
			if err != nil {
				return nil, err
			}
			second, err := r.ctl.search("collPara", q, searchLimit)
			if err != nil {
				return nil, err
			}
			r.attempted++
			if !sameHits(first.Results, second.Results, 0) {
				r.fail(1, "search %q: repeated answer differs from the first", q)
			}
			if second.Cached {
				cachedTwins++
			}
			o.searches = append(o.searches, q)
			o.hits = append(o.hits, first.Results)
		}
		relevant := r.relevantParas()
		queries, topics := topicQueries()
		for i, q := range queries {
			rep, err := r.ctl.search("collPara", q, searchLimit)
			if err != nil {
				return nil, err
			}
			r.attempted++
			if len(rep.Results) != searchLimit {
				r.fail(1, "planted term %q: %d hits, want %d", q, len(rep.Results), searchLimit)
				continue
			}
			for _, h := range rep.Results {
				if !relevant[topics[i]][h.ID] {
					r.fail(1, "planted term %q: hit %s is not a %s paragraph (precision@10 < 1)", q, h.ID, topics[i])
					break
				}
			}
		}
	case kQuery:
		subs, err := r.calibrate(subQueryTexts(r.cfg.seed))
		if err != nil {
			return nil, err
		}
		for i := 0; i < oracleSample; i++ {
			stmt := mixedStatement(rng, subs, r.corpus.Config.YearRange)
			first, err := r.ctl.query(stmt.text)
			if err != nil {
				return nil, err
			}
			second, err := r.ctl.query(stmt.text)
			if err != nil {
				return nil, err
			}
			r.attempted++
			a, b := firstColumn(first.Rows), firstColumn(second.Rows)
			if !slices.Equal(a, b) {
				r.fail(1, "query %q: repeated answer differs from the first", stmt.text)
			}
			if second.Cached {
				cachedTwins++
			}
			o.statements = append(o.statements, stmt)
			o.rows = append(o.rows, a)
		}
	}
	r.attempted++
	if cachedTwins == 0 {
		r.fail(1, "no repeated request was answered from the query cache")
	}
	return o, nil
}

// relevantParas maps topic name → paragraph id → planted, from the
// corpus generator's ground truth.
func (r *run) relevantParas() map[string]map[string]bool {
	out := map[string]map[string]bool{}
	base := 0
	for i := range r.corpus.Docs {
		d := &r.corpus.Docs[i]
		for topic, paras := range d.RelevantParas {
			if out[topic] == nil {
				out[topic] = map[string]bool{}
			}
			for _, p := range paras {
				out[topic][r.paraOIDs[base+p]] = true
			}
		}
		base += d.ParaCount
	}
	return out
}

func firstColumn(rows [][]string) []string {
	out := make([]string, 0, len(rows))
	for _, row := range rows {
		if len(row) > 0 {
			out = append(out, row[0])
		}
	}
	sort.Strings(out)
	return out
}

// sameHits compares two rankings: same ids in the same order, scores
// within tol.
func sameHits(a, b []searchHit, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := a[i].Score - b[i].Score
		if a[i].ID != b[i].ID || d > tol || d < -tol {
			return false
		}
	}
	return true
}

// writeRecord stores the run record under benchmark/out.
func (r *run) writeRecord() error {
	name := fmt.Sprintf("run_%s_seed%d_trace%d.json", r.cfg.workload, r.cfg.seed, b2i(r.cfg.trace))
	b, err := json.MarshalIndent(r.record, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.outDir, name), append(b, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
