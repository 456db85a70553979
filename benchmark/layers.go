package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	docirs "repro"
	"repro/internal/core"
	"repro/internal/irs"
	"repro/internal/irs/codec"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/server"
	"repro/internal/sgml"
	"repro/internal/vql"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The per-layer ledger has two sources. S: counters of the live
// server, read from /stats before and after the measured phase (free,
// always on). T: the traced pass — after the server has shut down the
// benchmark opens the same database files in this process, replays the
// head of the same request stream single-threaded and times each
// public entry point on the way down, then times the entry points no
// request of this workload reaches on a small fixed probe, so that
// every layer has a figure on every workload.

// ---- S: the live server's own counters --------------------------------

type liveStats struct {
	c          *conn
	before     map[string]any
	after      map[string]any
	queueWait  []float64 // µs, from the request traces the server kept
	pendingMax float64
	quit, done chan struct{}
	err        error
}

func getStats(c *conn) (map[string]any, error) {
	var m map[string]any
	err := c.doJSON("GET", "/stats", nil, &m)
	return m, err
}

// num follows path through nested JSON objects; a missing member is 0.
func num(m map[string]any, path ...string) float64 {
	var cur any = m
	for _, p := range path {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = obj[p]
	}
	f, _ := cur.(float64)
	return f
}

// collSum adds a per-collection member up over all collections.
func collSum(m map[string]any, path ...string) float64 {
	colls, _ := m["collections"].(map[string]any)
	sum := 0.0
	for _, c := range colls {
		if cm, ok := c.(map[string]any); ok {
			sum += num(cm, path...)
		}
	}
	return sum
}

// watch snapshots /stats and starts sampling the propagation backlog
// five times a second over its own connection.
func (r *run) watch() (*liveStats, error) {
	l := &liveStats{c: newConn(r.proc.addr), quit: make(chan struct{}), done: make(chan struct{})}
	var err error
	if l.before, err = getStats(l.c); err != nil {
		return nil, err
	}
	go func() {
		defer close(l.done)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-l.quit:
				return
			case <-tick.C:
				m, err := getStats(l.c)
				if err != nil {
					l.err = err
					return
				}
				l.pendingMax = max(l.pendingMax, collSum(m, "pending_ops"))
			}
		}
	}()
	return l, nil
}

// stop ends the sampling and takes the closing snapshot, with the
// admission queue waits of the request traces the server retained.
func (l *liveStats) stop() error {
	close(l.quit)
	<-l.done
	defer l.c.close()
	if l.err != nil {
		return l.err
	}
	var err error
	if l.after, err = getStats(l.c); err != nil {
		return err
	}
	var slow struct {
		Traces []struct {
			Op    string `json:"op"`
			Spans []struct {
				Name  string  `json:"name"`
				DurMS float64 `json:"dur_ms"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := l.c.doJSON("GET", "/debug/slowlog?n=4096", nil, &slow); err != nil {
		return err
	}
	for _, t := range slow.Traces {
		for _, s := range t.Spans {
			if s.Name == "queue_wait" {
				l.queueWait = append(l.queueWait, s.DurMS*1000)
			}
		}
	}
	return nil
}

// httpP50 is the server's own median latency of an endpoint, in µs,
// since the process started (warm-up of the same traffic included).
func (l *liveStats) httpP50(endpoint string) float64 {
	lat, _ := l.after["latency"].(map[string]any)
	for key, s := range lat {
		if strings.Contains(key, "mmf_http_request_seconds") && strings.Contains(key, `"`+endpoint+`"`) {
			if sm, ok := s.(map[string]any); ok {
				return num(sm, "p50_ms") * 1000
			}
		}
	}
	return 0
}

func (l *liveStats) delta(path ...string) float64 {
	return num(l.after, path...) - num(l.before, path...)
}

func (l *liveStats) collDelta(path ...string) float64 {
	return collSum(l.after, path...) - collSum(l.before, path...)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fill reports the S metrics.
func (l *liveStats) fill(v map[string]float64, w *writer) {
	hits, misses := l.delta("cache", "hits"), l.delta("cache", "misses")
	v["server.cache_hit_rate"] = ratio(hits, hits+misses)
	v["server.cache_evictions"] = l.delta("cache", "by_reason", "evictions")
	v["server.rejected"] = l.delta("admission", "rejected")
	v["server.backpressured"] = l.delta("ingest", "backpressured")
	sort.Float64s(l.queueWait)
	if supports(len(l.queueWait), 0.95) {
		v["server.queue_wait_p95_us"] = percentile(l.queueWait, 0.95)
	}
	v["server.http_search_p50_us"] = l.httpP50("search")
	bh, bm := l.collDelta("buffer_hits"), l.collDelta("buffer_misses")
	v["core.buffer_hit_rate"] = ratio(bh, bh+bm)
	v["core.flushes"] = l.collDelta("flushes")
	v["core.analyze_ms_total"] = l.collDelta("pipeline", "analyze_ms")
	v["core.commit_ms_total"] = l.collDelta("pipeline", "commit_ms")
	v["core.pending_ops_max"] = l.pendingMax
	v["core.coalesce_window_ms"] = num(l.after, "collections", "collPara", "pipeline", "coalesce_window_ms")
	grouped := func(m map[string]any) (ops, commits float64) {
		colls, _ := m["collections"].(map[string]any)
		for _, c := range colls {
			if cm, ok := c.(map[string]any); ok {
				n := num(cm, "pipeline", "group_commits")
				commits += n
				ops += n * num(cm, "pipeline", "avg_group_size")
			}
		}
		return ops, commits
	}
	o1, c1 := grouped(l.after)
	o0, c0 := grouped(l.before)
	v["core.avg_group_size"] = ratio(o1-o0, c1-c0)
	v["irs.heap_bytes"] = collSum(l.after, "heap_bytes")
	v["irs.mapped_bytes"] = collSum(l.after, "mapped_bytes")
	v["irs.compactions"] = collSum(l.after, "pipeline", "compactions")
	v["irs.tombstone_ratio"] = num(l.after, "collections", "collPara", "pipeline", "tombstone_ratio")
	if w != nil {
		acks, text := w.acks()
		v["wal.fsyncs_per_ack"] = ratio(l.collDelta("wal", "fsyncs"), float64(acks-w.acksAtMeasure))
		v["wal.bytes_per_text_byte"] = ratio(l.collDelta("wal", "bytes"), float64(text-w.textAtMeasure))
	}
}

// ---- T: the traced pass -----------------------------------------------

// replayOp is one request of the traced pass.
type replayOp struct {
	kind  uint8 // kSearch, kQuery, kIngest, kVisible (an edit), kDelete
	probe bool  // not of this workload: timed only so that its layers have a figure
	coll  string
	irs   string
	stmt  mixedStmt
	lane  int // of a write: deletes refer to the lane's own documents
	w     writeOp
}

// replayKind is the request kind a write of the stream is replayed and
// filed as (the replay does not probe, so a write is its request only).
var replayKind = [...]uint8{opIngest: kIngest, opEdit: kVisible, opDelete: kDelete}

const (
	replayN = 200 // requests of the workload's own stream
	probeN  = 60  // requests per kind the workload lacks
)

// replayOps returns the head of the stream client 0 (closed loop) or
// the writer and reader by due time (open loop) sent live, followed by
// probes of every kind the workload does not send.
func (r *run) replayOps() []replayOp {
	seed := r.cfg.seed
	var ops []replayOp
	cold := searchPool(seed, coldPoolSize)
	have := map[uint8]bool{}
	switch r.spec.kind {
	case kSearch:
		pool, rng := cold, rand.New(rand.NewSource(seed*31))
		pick := uniformPick(rng, len(pool))
		if r.spec.warm {
			pool = searchPool(seed, hotPoolSize)
			pick = zipfPick(rng, len(pool), hotZipfS)
		}
		for i := 0; i < replayN; i++ {
			ops = append(ops, replayOp{kind: kSearch, coll: "collPara", irs: pool[pick()]})
		}
		have[kSearch] = true
	case kQuery:
		rng := rand.New(rand.NewSource(seed * 37))
		for i := 0; i < replayN; i++ {
			ops = append(ops, replayOp{kind: kQuery, stmt: mixedStatement(rng, r.subs, r.corpus.Config.YearRange)})
		}
		have[kQuery] = true
	case kSearchable:
		// The write lanes and the reader merged by due instant.
		var lanes [writeLanes][]writeOp
		for i := range lanes {
			lanes[i] = writeStream(seed, i, replayN, len(r.leafOIDs))
		}
		rrng := rand.New(rand.NewSource(seed*41 + 1))
		writes, reads := 0, 0
		for len(ops) < replayN {
			if float64(writes)/r.spec.writeRate <= float64(reads)/r.spec.readRate {
				o := lanes[writes%writeLanes][writes/writeLanes]
				ops = append(ops, replayOp{kind: replayKind[o.kind], lane: writes % writeLanes, w: o})
				writes++
			} else {
				coll := "collPara"
				if rrng.Intn(10) == 0 {
					coll = "collDoc"
				}
				ops = append(ops, replayOp{kind: kSearch, coll: coll, irs: cold[rrng.Intn(len(cold))]})
				reads++
			}
		}
		have[kSearch], have[kIngest], have[kVisible] = true, true, true
	}
	prng := rand.New(rand.NewSource(seed ^ 0x9e0be))
	if !have[kSearch] || r.spec.warm { // a warm cache leaves no search below the handler to time
		start := len(ops)
		for i := 0; i < probeN; i++ {
			ops = append(ops, replayOp{kind: kSearch, probe: true, coll: "collPara", irs: cold[prng.Intn(len(cold))]})
		}
		ops = append(ops, ops[start:]...) // asked again: answered from the query cache
	}
	if !have[kQuery] {
		for i := 0; i < probeN; i++ {
			ops = append(ops, replayOp{kind: kQuery, probe: true, stmt: mixedStatement(prng, r.subs, r.corpus.Config.YearRange)})
		}
	}
	if !have[kIngest] {
		for _, o := range writeStream(seed, 0, probeN, len(r.leafOIDs)) {
			if o.kind != opDelete {
				ops = append(ops, replayOp{kind: replayKind[o.kind], probe: true, w: o})
			}
		}
	}
	return ops
}

// inproc is the database opened in this process.
type inproc struct {
	r       *run
	sys     *docirs.System
	dtd     *docirs.DTD
	para    *core.Collection
	doc     *core.Collection
	mem     *docirs.System // memory-only twin: document inserts without the durable log
	memDTD  *docirs.DTD
	tr      *tracer
	flushes []time.Duration
	flushNS [2]int64 // time inside Flush: analyze+commit (irs), everything else (core)
}

// flush propagates pending updates of both collections, timed: in the
// live server the background flusher and the next query do this.
func (p *inproc) flush(op int, probe bool) error {
	for _, col := range []*core.Collection{p.para, p.doc} {
		if col.PendingOps() == 0 {
			continue
		}
		before := col.Stats().Snapshot()
		var err error
		_, d := p.tr.call(op, "core.Flush", -1, func() { err = col.Flush() })
		if err != nil {
			return fmt.Errorf("flush %s: %w", col.Name(), err)
		}
		after := col.Stats().Snapshot()
		inIRS := (after.AnalyzeNanos - before.AnalyzeNanos) + (after.CommitNanos - before.CommitNanos)
		p.flushes = append(p.flushes, d)
		if !probe { // shares are of the workload's own requests
			p.flushNS[0] += inIRS
			p.flushNS[1] += max(int64(d)-inIRS, 0)
		}
	}
	return nil
}

// exchange builds the request and the recorder of one in-process call,
// so that only ServeHTTP itself is inside the timed span.
func exchange(method, path string, body []byte) (*httptest.ResponseRecorder, *http.Request) {
	return httptest.NewRecorder(), httptest.NewRequest(method, path, bytes.NewReader(body))
}

// opTimes is what the passes measured for one request. Durations are
// zero where a pass does not apply.
type opTimes struct {
	handler, system       time.Duration
	hit                   bool // answered from the query cache in the handler pass
	handlerSpan, sysSpan  int
	self                  map[string]time.Duration // layer → self time of this request
	parse, plan, execute  time.Duration
	rows                  int
	coreCall              time.Duration // GetIRSResultTopK / GetIRSResult
	bufferHit             bool
	qparse, snapshot, top time.Duration
}

// ledger runs the traced pass and fills in every per-layer metric.
func (r *run) ledger(v map[string]float64, ph phase, live *liveStats, disk, irsBytes, walBytes int64) error {
	// The live phase as the generator saw it, per request kind: median and
	// p95 under the issue's end-to-end names, the further tail under
	// client.*; of those, the names BENCHMARK.json lists.
	listed := map[string]bool{}
	for _, m := range r.cfg.contract.PerLayer {
		listed[m.Name] = true
	}
	wire := map[uint8]float64{}
	for _, kind := range []uint8{kSearch, kQuery, kIngest, kSearchable, kVisible} {
		lat := sortedLatencies(ph, kind)
		for _, q := range []struct {
			name string
			q    float64
		}{{"%s_p50_ms", 0.50}, {"%s_p95_ms", 0.95}, {"client.%s_p99_ms", 0.99}, {"client.%s_p999_ms", 0.999}} {
			if name := fmt.Sprintf(q.name, kindNames[kind]); listed[name] && supports(len(lat), q.q) {
				v[name] = percentile(lat, q.q)
			}
		}
		wire[kind] = percentile(lat, 0.50) * 1000 // µs
	}
	var lags []float64
	for _, s := range ph.samples {
		lags = append(lags, float64(s.lag)/1e6)
	}
	sort.Float64s(lags)
	v["client.sched_lag_p95_ms"] = percentile(lags, 0.95)
	v["client.cpu_share"] = ph.cpu.Seconds() / (ph.length.Seconds() * float64(r.procs))
	live.fill(v, ph.writer)
	v["wal.recovered_records"] = r.recovered
	v["irs.index_bytes_per_text_byte"] = ratio(float64(irsBytes), float64(r.sgmlBytes))
	v["oodb.bytes_per_text_byte"] = ratio(float64(disk-irsBytes-walBytes), float64(r.sgmlBytes))

	// Open the files the server left, layer by layer.
	t0 := time.Now()
	db, err := oodb.Open(r.dbDir, oodb.Options{SyncWAL: true})
	if err != nil {
		return fmt.Errorf("traced pass: oodb.Open: %w", err)
	}
	v["oodb.open_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if err := db.Checkpoint(); err != nil {
		return fmt.Errorf("traced pass: checkpoint: %w", err)
	}
	v["oodb.checkpoint_ms"] = ms(time.Since(t0))
	if err := db.Close(); err != nil {
		return err
	}
	irsDir := filepath.Join(r.dbDir, "irs")
	t0 = time.Now()
	heapEng, err := irs.NewEngineAt(irsDir, irs.Options{})
	if err != nil {
		return fmt.Errorf("traced pass: open heap: %w", err)
	}
	v["irs.open_heap_ms"] = ms(time.Since(t0))
	heapEng.Close()
	t0 = time.Now()
	mappedEng, err := irs.NewEngineAt(irsDir, irs.Options{Mapped: true})
	if err != nil {
		return fmt.Errorf("traced pass: open mapped: %w", err)
	}
	v["irs.open_mapped_ms"] = ms(time.Since(t0))
	defer mappedEng.Close()
	t0 = time.Now()
	sys, err := docirs.Open(r.dbDir)
	if err != nil {
		return fmt.Errorf("traced pass: docirs.Open: %w", err)
	}
	v["docirs.open_ms"] = ms(time.Since(t0))
	closed := false
	defer func() {
		if !closed { // an error below: the timed Close was not reached
			sys.Close()
		}
	}()

	p := &inproc{r: r, sys: sys, tr: newTracer()}
	if p.dtd, err = sys.LoadDTD(workload.MMFDTD); err != nil {
		return err
	}
	if p.para, err = sys.Collection("collPara"); err != nil {
		return err
	}
	if p.doc, err = sys.Collection("collDoc"); err != nil {
		return err
	}
	// Propagation is driven from here, so that a flush is timed and does
	// not run beside a timed request.
	p.para.SetPolicy(core.PropagateManually)
	p.doc.SetPolicy(core.PropagateManually)
	if p.mem, err = docirs.Open(""); err != nil {
		return err
	}
	defer p.mem.Close()
	if p.memDTD, err = p.mem.LoadDTD(workload.MMFDTD); err != nil {
		return err
	}

	// One processor from here to the end of the timed calls: a replayed
	// request then costs what it costs in processor time, which is what
	// it gets in the live server when nproc clients keep nproc processors
	// busy. (Run alone on two, a search would spread its shards over both
	// and look twice as fast as any live request is.)
	procs := runtime.GOMAXPROCS(1)
	ops := r.replayOps()
	times, err := p.passes(ops)
	if err != nil {
		return err
	}
	v["client.trace_overhead_pct"] = traceOverhead(len(p.tr.spans), times)
	mappedPara, err := mappedEng.Collection("collPara")
	if err != nil {
		return err
	}
	p.search(v, ops, times, mappedPara)
	p.report(v, ops, times, wire, live)
	if err := p.probes(v); err != nil {
		return err
	}
	v["obs.overhead_pct"] = p.obsOverhead(ops)
	runtime.GOMAXPROCS(procs)

	t0 = time.Now()
	if err := sys.Engine().Save(); err != nil {
		return fmt.Errorf("traced pass: save: %w", err)
	}
	v["irs.save_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	closed = true
	if err := sys.Close(); err != nil {
		return fmt.Errorf("traced pass: close: %w", err)
	}
	v["docirs.close_ms"] = ms(time.Since(t0))
	return p.tr.write(filepath.Join(r.outDir, "trace_"+r.cfg.workload+".jsonl"))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// newHandler is a serving layer like mmfserve's over the opened system.
func (p *inproc) newHandler() (http.Handler, error) {
	srv := server.New(p.sys, server.Config{CacheSize: 1024, CompactRatio: 0.5})
	if err := srv.PreloadDTD("mmf", workload.MMFDTD); err != nil {
		return nil, err
	}
	return srv.Handler(), nil
}

// A write stream deletes only what its lane ingested before; a replay
// that meets a delete first has lost an ingest.
var errNothingToDelete = errors.New("delete of a document the lane has not ingested")

// passes executes every request once per depth: through the HTTP
// handler (depth 0), through the System method the handler calls
// (depth 1), and through the functions that method calls with the ones
// those call in turn (depth 2). The depths of one request run back to
// back, outermost first for even requests and innermost first for odd
// ones: whichever runs second finds the posting lists in the
// processor's caches, and alternating the order keeps that advantage
// from always falling to the same side of a subtraction. The handler
// has its own fresh query cache; the result buffer is left as the
// server persisted it, which is the state the live requests met. A
// request the handler answered from its cache has no children.
// Writes of one depth stay; the next depth writes its own document or
// edits again, and every write is followed by a timed flush.
func (p *inproc) passes(ops []replayOp) ([]opTimes, error) {
	times := make([]opTimes, len(ops))
	h, err := p.newHandler()
	if err != nil {
		return nil, err
	}
	if p.r.spec.warm {
		// The live requests met a cache holding the whole pool.
		for _, o := range ops {
			if !o.probe && o.kind == kSearch {
				rec, req := exchange("GET", searchPath(o.coll, o.irs, searchLimit), nil)
				h.ServeHTTP(rec, req)
			}
		}
	}
	ev := p.sys.Coupling().Evaluator()
	store := p.sys.Store()
	var docs0 [writeLanes][]string     // documents ingested through the handler, per lane
	var docs1 [writeLanes][]docirs.OID // documents ingested through the System

	depth0 := func(i int, o replayOp, t *opTimes) error {
		if o.kind == kDelete && o.w.target >= len(docs0[o.lane]) {
			return errNothingToDelete
		}
		method, path, body := p.request(o, docs0[o.lane])
		rec, req := exchange(method, path, body)
		t.handlerSpan, t.handler = p.tr.call(i, "server.ServeHTTP "+kindNames[o.kind], -1, func() { h.ServeHTTP(rec, req) })
		if rec.Code < 200 || rec.Code > 299 {
			return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
		}
		t.hit = bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`))
		if o.kind == kIngest {
			var rep struct {
				OIDs []string `json:"oids"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || len(rep.OIDs) != 1 {
				return fmt.Errorf("ingest reply %s", rec.Body.String())
			}
			docs0[o.lane] = append(docs0[o.lane], rep.OIDs[0])
		}
		return nil
	}

	depth1 := func(i int, o replayOp, t *opTimes) (err error) {
		switch o.kind {
		case kSearch:
			t.sysSpan, t.system = p.tr.call(i, "docirs.SearchTopK", -1, func() { _, err = p.sys.SearchTopK(o.coll, o.irs, 16) })
		case kQuery:
			t.sysSpan, t.system = p.tr.call(i, "docirs.QueryWithStrategy", -1, func() { _, err = p.sys.QueryWithStrategy(o.stmt.text, docirs.StrategyAuto) })
		case kIngest:
			var oid docirs.OID
			t.sysSpan, t.system = p.tr.call(i, "docirs.LoadDocument", -1, func() { oid, err = p.sys.LoadDocument(p.dtd, o.w.sgml) })
			docs1[o.lane] = append(docs1[o.lane], oid)
		case kVisible:
			// SetText is one attribute write in docmodel and a durable
			// commit in oodb; the commit is all of its cost.
			leaf := docirs.MustOID(p.r.leafOIDs[o.w.target])
			t.sysSpan, t.system = p.tr.call(i, "oodb.SetText", -1, func() { err = p.sys.SetText(leaf, o.w.text+" d1") })
		case kDelete:
			if o.w.target >= len(docs1[o.lane]) {
				return errNothingToDelete
			}
			t.sysSpan, t.system = p.tr.call(i, "docirs.DeleteDocument", -1, func() { err = p.sys.DeleteDocument(docs1[o.lane][o.w.target]) })
		}
		return err
	}

	// depth2 returns the spans that are children of the System span; a
	// span it records below one of those carries its parent already.
	depth2 := func(i int, o replayOp, t *opTimes) (children []int, err error) {
		switch o.kind {
		case kSearch:
			col := p.para
			if o.coll == "collDoc" {
				col = p.doc
			}
			var coreSpan int
			coreSpan, t.coreCall = p.tr.call(i, "core.GetIRSResultTopK", -1, func() { _, err = col.GetIRSResultTopK(o.irs, 16) })
			if err != nil {
				return nil, err
			}
			var node *irs.Node
			if _, t.qparse = p.tr.call(i, "irs.ParseQuery", coreSpan, func() { node, err = irs.ParseQuery(o.irs) }); err != nil {
				return nil, err
			}
			var snap *irs.Snapshot
			_, t.snapshot = p.tr.call(i, "irs.Snapshot", coreSpan, func() { snap = col.IRS().Snapshot() })
			_, t.top = p.tr.call(i, "irs.SearchNodeTopKAt", coreSpan, func() { col.IRS().SearchNodeTopKAt(snap, node, 16) })
			return []int{coreSpan}, nil
		case kQuery:
			var q *vql.Query
			var parseSpan, planSpan, execSpan int
			if parseSpan, t.parse = p.tr.call(i, "vql.Parse", -1, func() { q, err = vql.Parse(o.stmt.text) }); err != nil {
				return nil, err
			}
			var plan *vql.Plan
			if planSpan, t.plan = p.tr.call(i, "vql.PlanQuery", -1, func() { plan, err = ev.PlanQuery(q, vql.StrategyAuto) }); err != nil {
				return nil, err
			}
			var rs *vql.ResultSet
			if execSpan, t.execute = p.tr.call(i, "vql.Execute", -1, func() { rs, err = ev.Execute(plan) }); err != nil {
				return nil, err
			}
			t.rows = len(rs.Rows)
			// The IRS-first plan evaluates the getIRSValue predicate while
			// planning, through the coupling's buffered GetIRSResult.
			col := p.para
			if o.stmt.coll == "collDoc" {
				col = p.doc
			}
			hits := col.Stats().Snapshot().BufferHits
			_, t.coreCall = p.tr.call(i, "core.GetIRSResult", planSpan, func() { _, err = col.GetIRSResult(o.stmt.irs) })
			t.bufferHit = col.Stats().Snapshot().BufferHits > hits
			return []int{parseSpan, planSpan, execSpan}, err
		case kIngest:
			var tree *sgml.Node
			var parseSpan, durable int
			parseSpan, t.parse = p.tr.call(i, "sgml.ParseDocument", -1, func() {
				tree, err = sgml.ParseDocument(p.dtd, o.w.sgml, sgml.ParseOptions{Strict: true})
			})
			if err != nil {
				return nil, err
			}
			// The insert costs what docmodel does plus what oodb's durable
			// log adds; the same insert into a memory-only twin is the
			// first part alone.
			if durable, t.coreCall = p.tr.call(i, "oodb.InsertDocument durable", -1, func() { _, err = store.InsertDocument(p.dtd, tree) }); err != nil {
				return nil, err
			}
			memTree, err := sgml.ParseDocument(p.memDTD, o.w.sgml, sgml.ParseOptions{Strict: true})
			if err != nil {
				return nil, err
			}
			_, t.top = p.tr.call(i, "docmodel.InsertDocument memory", durable, func() { _, err = p.mem.Store().InsertDocument(p.memDTD, memTree) })
			return []int{parseSpan, durable}, err
		}
		return nil, nil
	}

	for i, o := range ops {
		t := &times[i]
		t.handlerSpan, t.sysSpan = -1, -1
		write := o.kind != kSearch && o.kind != kQuery
		mark := len(p.tr.spans)
		var children []int
		steps := []func() error{
			func() error { return depth0(i, o, t) },
			func() error {
				if t.hit {
					return nil
				}
				return depth1(i, o, t)
			},
			func() (err error) {
				if t.hit {
					return nil
				}
				children, err = depth2(i, o, t)
				return err
			},
		}
		if i%2 == 1 {
			steps[0], steps[2] = steps[2], steps[0]
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return nil, fmt.Errorf("traced pass, request %d: %w", i, err)
			}
			if write {
				if err := p.flush(i, o.probe); err != nil {
					return nil, err
				}
			}
		}
		if t.hit {
			// Innermost-first order ran the lower depths before the handler
			// said it would not have: keep only the handler's span.
			hs := p.tr.spans[t.handlerSpan]
			p.tr.spans = append(p.tr.spans[:mark], hs)
			*t = opTimes{handler: t.handler, hit: true, handlerSpan: mark, sysSpan: -1}
			continue
		}
		if t.sysSpan >= 0 {
			p.tr.spans[t.sysSpan].Parent = t.handlerSpan
		}
		for _, c := range children {
			p.tr.spans[c].Parent = t.sysSpan
		}
	}

	self := selfTimes(p.tr.spans)
	for i := range times {
		times[i].self = map[string]time.Duration{}
	}
	for i, s := range p.tr.spans {
		if s.Name != "core.Flush" && s.Op >= 0 {
			times[s.Op].self[s.layer()] += self[i]
		}
	}
	return times, nil
}

// request renders the HTTP form of a replayed request; ingested are the
// documents a delete may name.
func (p *inproc) request(o replayOp, ingested []string) (method, path string, body []byte) {
	switch o.kind {
	case kSearch:
		return "GET", searchPath(o.coll, o.irs, searchLimit), nil
	case kQuery:
		body, _ = json.Marshal(map[string]string{"query": o.stmt.text})
		return "POST", "/query", body
	case kIngest:
		body, _ = json.Marshal(map[string]any{"dtd": "mmf", "mode": "async", "documents": []string{o.w.sgml}})
		return "POST", "/documents", body
	case kVisible:
		body, _ = json.Marshal(map[string]string{"text": o.w.text})
		return "PUT", "/documents/" + p.r.leafOIDs[o.w.target] + "/text", body
	}
	return "DELETE", "/documents/" + ingested[o.w.target], nil
}

// search runs the replayed collPara searches once more against the
// same snapshot file opened mapped — heap (the depth-2 pass above) and
// mapped on the same file and the same queries — and a part of them
// exhaustively, which is what the top-k path is measured against. The
// mapped collection is touched by nothing else, so its counters are
// exactly these queries'.
func (p *inproc) search(v map[string]float64, ops []replayOp, times []opTimes, mapped *irs.Collection) {
	var heap, mmap, exhaustive []float64
	for i, o := range ops {
		if o.kind != kSearch || o.coll != "collPara" || times[i].hit {
			continue
		}
		node, err := irs.ParseQuery(o.irs)
		if err != nil {
			continue
		}
		heap = append(heap, us(times[i].top))
		msnap := mapped.Snapshot()
		_, d := p.tr.call(i, "irs.SearchNodeTopKAt mapped", -1, func() { mapped.SearchNodeTopKAt(msnap, node, 16) })
		mmap = append(mmap, us(d))
		if len(exhaustive) < 60 {
			snap := p.para.IRS().Snapshot()
			_, d = p.tr.call(i, "irs.SearchNodeAt", -1, func() { p.para.IRS().SearchNodeAt(snap, node) })
			exhaustive = append(exhaustive, us(d))
		}
	}
	st := mapped.TopKStats()
	q := float64(st.Queries)
	v["irs.topk_heap_us"] = median(heap)
	v["irs.topk_mapped_us"] = median(mmap)
	v["irs.exhaustive_us"] = median(exhaustive)
	v["irs.candidates_scored_per_query"] = ratio(float64(st.Scored), q)
	v["irs.prune_rate"] = ratio(float64(st.Pruned), float64(st.Scored+st.Pruned))
	v["irs.blocks_skipped_per_query"] = ratio(float64(st.BlocksSkipped), q)
	v["irs.postings_decoded_per_query"] = ratio(float64(st.PostingsDecoded), q)
	v["irs.shards_skipped_per_query"] = ratio(float64(st.ShardsSkipped), q)
	for stage, name := range map[string]string{"topk_seed": "irs.topk_seed_p50_us", "topk_finish": "irs.topk_finish_p50_us", "topk_merge": "irs.topk_merge_p50_us"} {
		if hs, ok := obs.Default.HistogramSnapshot("mmf_stage_seconds", "stage", stage); ok {
			v[name] = us(hs.Quantile(0.5))
		}
	}
	v["irs.compression_ratio"] = p.para.IRS().CompressionRatio()
}

// report turns the passes into the ledger: per-kind handler times, the
// layers' self times, and how much of the wire time they account for.
func (p *inproc) report(v map[string]float64, ops []replayOp, times []opTimes, wire map[uint8]float64, live *liveStats) {
	kindIs := func(kind uint8, more func(*opTimes) bool) func(i int) bool {
		return func(i int) bool { return ops[i].kind == kind && (more == nil || more(&times[i])) }
	}
	pick := func(keep func(int) bool, get func(*opTimes) time.Duration) float64 {
		var vs []float64
		for i := range times {
			if keep(i) {
				vs = append(vs, us(get(&times[i])))
			}
		}
		return median(vs)
	}
	handler := func(t *opTimes) time.Duration { return t.handler }
	miss := func(t *opTimes) bool { return !t.hit }
	v["server.handler_search_us"] = pick(kindIs(kSearch, nil), handler)
	v["server.handler_query_us"] = pick(kindIs(kQuery, nil), handler)
	v["server.handler_ingest_us"] = pick(kindIs(kIngest, nil), handler)
	v["server.cache_hit_us"] = pick(func(i int) bool { return times[i].hit }, handler)
	v["server.handler_self_us"] = max(pick(func(i int) bool { return !ops[i].probe }, func(t *opTimes) time.Duration { return t.self["server"] }), 0)
	v["vql.parse_us"] = pick(kindIs(kQuery, miss), func(t *opTimes) time.Duration { return t.parse })
	v["vql.plan_us"] = pick(kindIs(kQuery, miss), func(t *opTimes) time.Duration { return t.plan })
	v["vql.execute_us"] = pick(kindIs(kQuery, miss), func(t *opTimes) time.Duration { return t.execute })
	rows, nq := 0, 0
	for i := range times {
		if ops[i].kind == kQuery && !times[i].hit {
			rows += times[i].rows
			nq++
		}
	}
	v["vql.rows_returned_avg"] = ratio(float64(rows), float64(nq))
	v["core.topk_self_us"] = max(pick(kindIs(kSearch, miss), func(t *opTimes) time.Duration { return t.self["core"] }), 0)
	v["core.buffer_hit_us"] = pick(kindIs(kQuery, func(t *opTimes) bool { return t.bufferHit }), func(t *opTimes) time.Duration { return t.coreCall })
	v["irs.parse_query_us"] = pick(kindIs(kSearch, miss), func(t *opTimes) time.Duration { return t.qparse })
	v["irs.snapshot_us"] = pick(kindIs(kSearch, miss), func(t *opTimes) time.Duration { return t.snapshot })
	var fl []float64
	for _, d := range p.flushes {
		fl = append(fl, us(d))
	}
	v["core.flush_us"] = median(fl)

	// The ledger check, per request kind: what the generator saw on the
	// wire against what the layers account for. net is what lies between
	// the generator's clock and the server's own per-endpoint clock:
	// loopback, the HTTP stack of both ends, the generator's scheduling.
	// What is left unattributed is mostly requests waiting for each
	// other inside the server, which a single-threaded replay cannot see.
	layers := []string{"server", "docirs", "vql", "core", "irs", "sgml", "docmodel", "oodb"}
	// The server's clock is per endpoint, so it is read where one kind of
	// request has the endpoint to itself: the workload's own request
	// under a closed loop, document ingest under the open loop (whose
	// search endpoint also serves the visibility probes).
	ends := map[uint8]string{kSearch: "search", kQuery: "query", kIngest: "ingest"}
	netKind := p.r.spec.kind
	if p.r.spec.open {
		netKind = kIngest
	}
	net := max(wire[netKind]-live.httpP50(ends[netKind]), 0)
	v["net.roundtrip_self_us"] = net
	for kind, name := range ends {
		own := func(i int) bool { return ops[i].kind == kind && !ops[i].probe }
		if pick(own, handler) == 0 || wire[kind] == 0 {
			continue
		}
		sum := net
		for _, l := range layers {
			sum += max(pick(own, func(t *opTimes) time.Duration { return t.self[l] }), 0)
		}
		v["unattributed."+name+"_us"] = wire[kind] - sum
		v["coverage."+name] = sum / wire[kind]
	}

	// Shares of all time the workload's own requests cost, flushes
	// included (analysis and commit to irs, the rest to core), and the
	// wire's addition for each.
	total := map[string]float64{}
	for i := range times {
		if ops[i].probe {
			continue
		}
		for l, d := range times[i].self {
			total[l] += us(d)
		}
		total["net"] += net
	}
	total["irs"] += float64(p.flushNS[0]) / 1e3
	total["core"] += float64(p.flushNS[1]) / 1e3
	all := 0.0
	for l, d := range total {
		total[l] = max(d, 0)
		all += total[l]
	}
	for _, l := range append(layers, "net") {
		v["share."+l] = ratio(total[l], all)
	}
}

// probes times the public entry points that no replayed request
// isolates, on fixed inputs from the corpus.
func (p *inproc) probes(v map[string]float64) error {
	corpus := p.r.corpus
	store := p.sys.Store()

	// sgml: parse the first documents of the corpus.
	nDocs := min(100, len(corpus.Docs))
	var parseTotal time.Duration
	var parseBytes int
	for i := 0; i < nDocs; i++ {
		var err error
		_, d := p.tr.call(-1, "sgml.ParseDocument", -1, func() {
			_, err = sgml.ParseDocument(p.dtd, corpus.Docs[i].SGML, sgml.ParseOptions{Strict: true})
		})
		if err != nil {
			return err
		}
		parseTotal += d
		parseBytes += len(corpus.Docs[i].SGML)
	}
	v["sgml.parse_us_per_doc"] = us(parseTotal) / float64(nDocs)
	v["sgml.parse_mb_per_s"] = float64(parseBytes) / 1e6 / parseTotal.Seconds()

	// docmodel: insert into the memory-only twin (no durable log), read
	// paragraph text from the opened database.
	var insertTotal time.Duration
	nIns := min(40, len(corpus.Docs))
	for i := 0; i < nIns; i++ {
		tree, err := sgml.ParseDocument(p.memDTD, corpus.Docs[i].SGML, sgml.ParseOptions{Strict: true})
		if err != nil {
			return err
		}
		_, d := p.tr.call(-1, "docmodel.InsertDocument", -1, func() { _, err = p.mem.Store().InsertDocument(p.memDTD, tree) })
		if err != nil {
			return err
		}
		insertTotal += d
	}
	v["docmodel.insert_us_per_doc"] = us(insertTotal) / float64(nIns)
	nParas := min(2000, len(p.r.paraOIDs))
	texts := make([]string, nParas)
	var textTimes []float64
	for i := 0; i < nParas; i++ {
		oid := docirs.MustOID(p.r.paraOIDs[i])
		_, d := p.tr.call(-1, "docmodel.Text", -1, func() { texts[i] = store.Text(oid, docirs.ModeFullText) })
		textTimes = append(textTimes, us(d))
	}
	v["docmodel.text_us"] = median(textTimes)

	// irs: analyze and commit the same paragraphs into a scratch
	// collection; the analyzer alone; the block codec on real postings.
	scratch, err := irs.NewEngine().CreateCollection("scratch", p.para.IRS().Model())
	if err != nil {
		return err
	}
	analyzed := make([]*irs.AnalyzedDoc, nParas)
	_, d := p.tr.call(-1, "irs.Analyze", -1, func() {
		for i, text := range texts {
			analyzed[i] = scratch.Analyze(p.r.paraOIDs[i], text, nil)
		}
	})
	v["irs.analyze_us_per_doc"] = us(d) / float64(nParas)
	_, d = p.tr.call(-1, "irs.AddAnalyzed", -1, func() {
		err = scratch.Batch(func(b *irs.Batch) error {
			for _, a := range analyzed {
				if _, err := b.AddAnalyzed(a); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	v["irs.commit_us_per_doc"] = us(d) / float64(nParas)
	analyzer := p.para.IRS().Index().Analyzer()
	textBytes := 0
	_, d = p.tr.call(-1, "irs.analysis.Analyze", -1, func() {
		for _, text := range texts {
			analyzer.Analyze(text)
			textBytes += len(text)
		}
	})
	v["irs.analysis.analyze_ns_per_byte"] = float64(d) / float64(textBytes)

	var encode, decode time.Duration
	postings := 0
	var docBuf, tfBuf []uint32
	for rank := 10; rank < 60; rank++ {
		list := p.para.IRS().Index().Postings(fmt.Sprintf("w%03d", rank))
		for at := 0; at < len(list); at += codec.BlockSize {
			chunk := list[at:min(at+codec.BlockSize, len(list))]
			docs := make([]uint32, len(chunk))
			pos := make([][]uint32, len(chunk))
			for i, po := range chunk {
				docs[i], pos[i] = uint32(po.Doc), po.Positions
			}
			var blk codec.Block
			_, d := p.tr.call(-1, "irs.codec.Encode", -1, func() { blk = codec.Encode(docs, pos) })
			encode += d
			_, d = p.tr.call(-1, "irs.codec.DecodeDocs+DecodeTFs", -1, func() {
				if docBuf, err = blk.DecodeDocs(docBuf[:0]); err == nil {
					tfBuf, err = blk.DecodeTFs(tfBuf[:0])
				}
			})
			if err != nil {
				return err
			}
			decode += d
			postings += len(chunk)
		}
	}
	v["irs.codec.encode_ns_per_posting"] = ratio(float64(encode), float64(postings))
	v["irs.codec.decode_ns_per_posting"] = ratio(float64(decode), float64(postings))

	// wal and oodb: a scratch log and a scratch database beside the
	// run's own files, so the device is the same.
	dir := filepath.Join(p.r.tmpDir, "scratch")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	lg, _, err := wal.Open(filepath.Join(dir, "probe.wal"), wal.Options{Name: "probe", Sync: wal.SyncOff})
	if err != nil {
		return err
	}
	payload := []byte(strings.Repeat("x", 2048)) // about one analyzed paragraph
	var appends, syncs []float64
	for i := 0; i < 200; i++ {
		rec := []wal.Record{{Seq: uint64(i + 1), Type: wal.TypeAdd, Payload: payload}}
		_, d := p.tr.call(-1, "wal.Append", -1, func() { err = lg.Append(rec) })
		if err != nil {
			return err
		}
		appends = append(appends, us(d))
		if i%4 == 3 {
			_, d := p.tr.call(-1, "wal.Sync", -1, func() { err = lg.Sync() })
			if err != nil {
				return err
			}
			syncs = append(syncs, us(d))
		}
	}
	if err := lg.Close(); err != nil {
		return err
	}
	v["wal.append_us"] = median(appends)
	v["wal.fsync_us"] = median(syncs)

	db, err := oodb.Open(filepath.Join(dir, "odb"), oodb.Options{SyncWAL: true})
	if err != nil {
		return err
	}
	if err := db.DefineClass("Probe", "", map[string]oodb.Kind{"text": oodb.KindString}); err != nil {
		return err
	}
	var commits []float64
	for i := 0; i < 100; i++ {
		tx := db.Begin()
		if _, err := tx.NewObject("Probe", map[string]oodb.Value{"text": oodb.S(texts[i%len(texts)])}); err != nil {
			return err
		}
		_, d := p.tr.call(-1, "oodb.Commit", -1, func() { err = tx.Commit() })
		if err != nil {
			return err
		}
		commits = append(commits, us(d))
	}
	v["oodb.commit_us"] = median(commits)
	return db.Close()
}

// traceOverhead is what the span recording of this file costs a
// replayed request: the time of a recorded call around nothing, times
// the spans a request got, as a share of the median handler time. (What
// the traced run's server flags and /stats polling cost the live phase
// is the distance between a traced run's <kind>_p50_ms and the untraced
// run's p50_ms.)
func traceOverhead(spans int, times []opTimes) float64 {
	const calls = 10000
	scratch := newTracer()
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		scratch.call(0, "", -1, func() {})
	}
	perSpan := float64(time.Since(t0)) / calls
	handler := make([]float64, len(times))
	for i := range times {
		handler[i] = float64(times[i].handler)
	}
	return ratio(perSpan*float64(spans)/float64(len(times)), median(handler)) * 100
}

// obsOverhead is the cost of the program's own instrumentation: the
// same small batch of searches with obs enabled and disabled in turn,
// fifteen pairs, the median of the pairs' ratios.
func (p *inproc) obsOverhead(ops []replayOp) float64 {
	var qs []replayOp
	for _, o := range ops {
		if o.kind == kSearch && len(qs) < 10 {
			qs = append(qs, o)
		}
	}
	if len(qs) == 0 {
		return 0
	}
	batch := func(enabled bool) float64 {
		obs.SetEnabled(enabled)
		t0 := time.Now()
		for _, o := range qs {
			p.sys.SearchTopK(o.coll, o.irs, 16) // each of these succeeded in the passes above
		}
		return us(time.Since(t0))
	}
	defer obs.SetEnabled(true)
	var pct []float64
	for i := 0; i < 15; i++ {
		var on, off float64
		if i%2 == 0 {
			on, off = batch(true), batch(false)
		} else {
			off, on = batch(false), batch(true)
		}
		pct = append(pct, (on-off)/off*100)
	}
	return median(pct)
}
