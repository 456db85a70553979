package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	docirs "repro"
	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/irs"
	"repro/internal/obs"
)

// routes wires the endpoint table. Query-evaluation and ingest
// endpoints go through the admission layer (which also wraps them in
// the per-endpoint latency histogram and request trace); cheap
// metadata endpoints (healthz, stats, metrics, listings) bypass it so
// they stay responsive under saturation.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/slowlog", s.handleSlowlog)
	s.mux.HandleFunc("POST /dtds", s.handleLoadDTD)
	s.mux.HandleFunc("POST /documents", s.admitted("ingest", s.handleIngest))
	s.mux.HandleFunc("DELETE /documents/{oid}", s.admitted("delete_document", s.handleDeleteDocument))
	s.mux.HandleFunc("PUT /documents/{oid}/text", s.admitted("set_text", s.handleSetText))
	s.mux.HandleFunc("GET /collections", s.handleListCollections)
	s.mux.HandleFunc("POST /collections", s.admitted("create_collection", s.handleCreateCollection))
	s.mux.HandleFunc("DELETE /collections/{name}", s.admitted("drop_collection", s.handleDropCollection))
	s.mux.HandleFunc("POST /collections/{name}/flush", s.admitted("flush", s.handleFlush))
	s.mux.HandleFunc("POST /collections/{name}/drain", s.admitted("drain", s.handleDrain))
	s.mux.HandleFunc("POST /collections/{name}/feedback", s.admitted("feedback", s.handleFeedback))
	s.mux.HandleFunc("GET /collections/{name}/search", s.admitted("search", s.handleSearch))
	s.mux.HandleFunc("POST /query", s.admitted("query", s.handleQuery))
}

// --- helpers -------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// fail reports a request error and counts it.
func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.stats.errored.Add(1)
	writeError(w, status, format, args...)
}

// maxBodyBytes bounds request bodies (ingest batches included).
const maxBodyBytes = 64 << 20

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func parseStrategy(name string) (docirs.Strategy, error) {
	switch name {
	case "", "auto":
		return docirs.StrategyAuto, nil
	case "independent":
		return docirs.StrategyIndependent, nil
	case "irs-first":
		return docirs.StrategyIRSFirst, nil
	}
	return docirs.StrategyAuto, fmt.Errorf("unknown strategy %q (want auto, independent or irs-first)", name)
}

func parseTextMode(name string) (int, error) {
	switch name {
	case "", "full":
		return docirs.ModeFullText, nil
	case "abstract":
		return docirs.ModeAbstract, nil
	case "own":
		return docirs.ModeOwnText, nil
	}
	return docirs.ModeFullText, fmt.Errorf("unknown text mode %q (want full, abstract or own)", name)
}

// --- health & stats ------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"epoch":  s.sys.Epoch(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits := s.stats.cacheHits.Load()
	misses := s.stats.cacheMisses.Load()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	backlog := int64(0)
	colls := make(map[string]any)
	for _, name := range s.sys.Collections() {
		col, err := s.sys.Collection(name)
		if err != nil {
			continue // dropped concurrently
		}
		pending := col.PendingOps()
		backlog += int64(pending)
		cs := col.Stats().Snapshot()
		ix := col.IRS().Index()
		avgGroup := 0.0
		if cs.GroupCommits > 0 {
			avgGroup = float64(cs.GroupedOps) / float64(cs.GroupCommits)
		}
		live, dead := ix.TombstoneStats()
		tk := col.IRS().TopKStats()
		degraded, degradedReason := col.Degraded()
		// Durability metrics: the write-ahead log behind this
		// collection's ingest path (enabled=false in memory mode or
		// with -no-wal). recovered_* appear only when this process's
		// open found a non-empty log to replay — evidence of a crash.
		walBlock := map[string]any{"enabled": false}
		if ws, ok := col.IRS().WALStats(); ok {
			walBlock = map[string]any{
				"enabled":   true,
				"policy":    ws.Policy,
				"seq":       ws.Seq,
				"epoch":     ws.Epoch,
				"watermark": ws.Watermark,
				"bytes":     ws.Bytes,
				"appends":   ws.Appends,
				"fsyncs":    ws.Syncs,
				"failed":    ws.Failed,
			}
			if !ws.LastSync.IsZero() {
				walBlock["last_fsync_unix_ms"] = ws.LastSync.UnixMilli()
			}
			if rep, ok := col.IRS().WALRecovery(); ok {
				walBlock["recovered_records"] = rep.Records
				walBlock["recovered_replayed"] = rep.Replayed
				walBlock["recovered_torn_bytes"] = rep.TornBytes
				walBlock["recovered_uncommitted"] = rep.Uncommitted
			}
		}
		pruneRate := 0.0
		if tk.Scored+tk.Pruned > 0 {
			pruneRate = float64(tk.Pruned) / float64(tk.Scored+tk.Pruned)
		}
		colls[name] = map[string]any{
			"docs":              col.DocCount(),
			"policy":            col.Policy().String(),
			"epoch":             col.Epoch(),
			"pending_ops":       pending,
			"buffered_queries":  col.BufferedQueries(),
			"irs_searches":      cs.IRSSearches,
			"buffer_hits":       cs.BufferHits,
			"buffer_misses":     cs.BufferMisses,
			"ops_logged":        cs.OpsLogged,
			"ops_applied":       cs.OpsApplied,
			"flushes":           cs.Flushes,
			"indexed":           cs.Indexed,
			"spec_reruns":       cs.SpecReruns,
			"delta_admitted":    cs.DeltaAdmitted,
			"shards":            ix.ShardCount(),
			"snapshots":         ix.SnapshotCount(),
			"shard_bytes":       ix.ShardSizes(),
			"compression_ratio": ix.CompressionRatio(),
			// shard_bytes totals split by residency: heap_bytes is what
			// the inverted file actually costs in Go heap, mapped_bytes
			// the part served from the read-only .irsc mapping (0 for
			// heap-loaded collections). Capacity planning for mapped
			// serving watches heap_bytes; the OS page cache owns the
			// rest.
			"heap_bytes":   ix.HeapBytes(),
			"mapped_bytes": ix.MappedBytes(),
			// Top-k engine metrics: how many queries went through the
			// streaming path, how many candidate documents the MaxScore
			// bounds let it skip scoring entirely, how many whole shards
			// the cross-shard threshold retired without a scan, how many
			// compressed posting blocks kept their payloads unexpanded
			// (vs postings decoded), and how loose the maintained max-tf
			// bounds have become (0 exact, →1 as tombstoned heavyweights
			// pile up before compaction).
			"topk": map[string]any{
				"queries":           tk.Queries,
				"candidates_scored": tk.Scored,
				"candidates_pruned": tk.Pruned,
				"prune_rate":        pruneRate,
				"shards_skipped":    tk.ShardsSkipped,
				"blocks_skipped":    tk.BlocksSkipped,
				"postings_decoded":  tk.PostingsDecoded,
				"bounds_staleness":  ix.BoundsStaleness(),
			},
			// Ingest-pipeline metrics: queue state, group-commit
			// shape, where flush time goes (analysis outside the
			// commit lock vs the lock-holding merge), and index
			// hygiene.
			"pipeline": map[string]any{
				"queue_depth":    pending,
				"queue_capacity": col.AsyncMaxPending(),
				// The group-commit window the background flusher is
				// currently waiting out. It moves inside
				// [coalesce_min_ms, coalesce_max_ms] with arrival rate
				// and queue depth; equal bounds fix it.
				"coalesce_window_ms": float64(col.CoalesceWindow()) / 1e6,
				"coalesce_min_ms":    float64(col.CoalesceMin()) / 1e6,
				"coalesce_max_ms":    float64(col.CoalesceMax()) / 1e6,
				"ingest_watermark":   col.Watermark(),
				"applied_watermark":  col.AppliedWatermark(),
				"async_flushes":      cs.AsyncFlushes,
				"group_commits":      cs.GroupCommits,
				"avg_group_size":     avgGroup,
				"analyze_ms":         float64(cs.AnalyzeNanos) / 1e6,
				"commit_ms":          float64(cs.CommitNanos) / 1e6,
				"flush_errors":       cs.FlushErrors,
				"flush_recoveries":   cs.FlushRecoveries,
				"last_flush_error":   col.LastFlushError(),
				"degraded":           degraded,
				"degraded_reason":    degradedReason,
				"compactions":        ix.Compactions(),
				"tombstones":         dead,
				"live_docs":          live,
				"tombstone_ratio":    ix.TombstoneRatio(),
			},
			"wal": walBlock,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"epoch":          s.sys.Epoch(),
		"qps":            s.qps.PerSecond(),
		"queries":        s.stats.queries.Load(),
		"searches":       s.stats.searches.Load(),
		"ingests":        s.stats.ingests.Load(),
		"edits":          s.stats.edits.Load(),
		"errors":         s.stats.errored.Load(),
		"cache": func() map[string]any {
			cm := s.CacheMetrics()
			return map[string]any{
				"hits":     hits,
				"misses":   misses,
				"hit_rate": hitRate,
				"entries":  cm.Entries,
				"capacity": s.cfg.CacheSize,
				"by_reason": map[string]any{
					"hits_main":            cm.HitsMain,
					"hits_probation":       cm.HitsProbation,
					"misses_cold":          cm.MissesCold,
					"promotions":           cm.Promotions,
					"ghost_readmits":       cm.GhostReadmits,
					"admission_rejections": cm.AdmissionRejects,
					"evictions":            cm.Evictions,
					"evicted_cost":         cm.EvictedCost,
				},
			}
		}(),
		"admission": map[string]any{
			"inflight":       s.stats.inflight.Load(),
			"max_concurrent": s.cfg.MaxConcurrent,
			"rejected":       s.stats.rejected.Load(),
		},
		"ingest": map[string]any{
			"async_documents": s.stats.asyncIngests.Load(),
			"backpressured":   s.stats.backpressured.Load(),
			"drains":          s.stats.drains.Load(),
		},
		"propagation_backlog": backlog,
		"collections":         colls,
		// Latency distributions of every histogram series the process
		// records (request endpoints, top-k phases, flush stages),
		// digested to fixed quantiles. /metrics carries the full
		// bucketed form of the same series.
		"latency": obs.Default.Summaries(),
		"slowlog": map[string]any{
			"threshold_ms": float64(obs.SharedSlowLog.Threshold()) / 1e6,
			"capacity":     obs.SharedSlowLog.Capacity(),
			"retained":     obs.SharedSlowLog.Len(),
			"recorded":     obs.SharedSlowLog.Recorded(),
		},
	})
}

// handleMetrics serves the Prometheus text exposition (format 0.0.4):
// the service counters and read-on-scrape gauges rendered directly
// from this server's state, then every histogram/counter series of
// the process-wide obs registry. Writing the server's own scalars
// inline (instead of registering gauge closures) keeps multiple
// Server instances in one process — the test suite's normal shape —
// from fighting over registry slots.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	counter := func(name, help string, pairs ...any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for i := 0; i+2 < len(pairs); i += 3 {
			fmt.Fprintf(&b, "%s{%s=%q} %d\n", name, pairs[i], pairs[i+1], pairs[i+2])
		}
	}
	counter("mmf_requests_total", "Requests served by kind.",
		"kind", "query", s.stats.queries.Load(),
		"kind", "search", s.stats.searches.Load(),
		"kind", "ingest", s.stats.ingests.Load(),
		"kind", "edit", s.stats.edits.Load(),
		"kind", "drain", s.stats.drains.Load())
	counter("mmf_request_errors_total", "Requests answered with an error body.",
		"kind", "all", s.stats.errored.Load())
	counter("mmf_admission_rejected_total", "Admission rejections (503).",
		"kind", "all", s.stats.rejected.Load())
	counter("mmf_cache_events_total", "Query-cache lookups by outcome.",
		"outcome", "hit", s.stats.cacheHits.Load(),
		"outcome", "miss", s.stats.cacheMisses.Load())
	cm := s.CacheMetrics()
	counter("mmf_cache_policy_events_total", "Query-cache events by reason.",
		"event", "hit_main", cm.HitsMain,
		"event", "hit_probation", cm.HitsProbation,
		"event", "miss_cold", cm.MissesCold,
		"event", "promotion", cm.Promotions,
		"event", "ghost_readmit", cm.GhostReadmits,
		"event", "admission_reject", cm.AdmissionRejects,
		"event", "eviction", cm.Evictions)
	counter("mmf_async_ingest_total", "Async-mode ingest outcomes.",
		"outcome", "accepted", s.stats.asyncIngests.Load(),
		"outcome", "backpressured", s.stats.backpressured.Load())
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, help, name, name, strconv.FormatFloat(v, 'g', -1, 64))
	}
	gauge("mmf_inflight_requests", "Currently admitted requests.",
		float64(s.stats.inflight.Load()))
	gauge("mmf_requests_per_second", "Request rate over the trailing window.",
		s.qps.PerSecond())
	gauge("mmf_cache_entries", "Query-cache entries resident.",
		float64(cm.Entries))
	gauge("mmf_cache_evicted_cost_seconds", "Summed rebuild cost of entries whose values were dropped.",
		cm.EvictedCost)
	gauge("mmf_uptime_seconds", "Seconds since the server started.",
		time.Since(s.start).Seconds())
	backlog := int64(0)
	var reruns, admitted []any
	fmt.Fprintf(&b, "# HELP mmf_coalesce_window_seconds Current group-commit coalescing window per collection.\n"+
		"# TYPE mmf_coalesce_window_seconds gauge\n")
	for _, name := range s.sys.Collections() {
		if col, err := s.sys.Collection(name); err == nil {
			backlog += int64(col.PendingOps())
			fmt.Fprintf(&b, "mmf_coalesce_window_seconds{collection=%q} %s\n",
				name, strconv.FormatFloat(col.CoalesceWindow().Seconds(), 'g', -1, 64))
			reruns = append(reruns, "collection", name, col.Stats().SpecReruns.Load())
			admitted = append(admitted, "collection", name, col.Stats().DeltaAdmitted.Load())
		}
	}
	counter("mmf_spec_reruns_total", "Flushes that re-ran the specification query over the extent.", reruns...)
	counter("mmf_delta_admitted_total", "New members admitted from logged creations without an extent scan.", admitted...)
	gauge("mmf_propagation_backlog", "Pending propagation ops across collections.",
		float64(backlog))
	obs.Default.WritePrometheus(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

// handleSlowlog serves the N slowest retained request/flush traces
// (default 32, ?n= to adjust), slowest first, each with its stage
// spans and annotations.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			s.fail(w, http.StatusBadRequest, "bad n %q", q)
			return
		}
		n = v
	}
	traces := obs.SharedSlowLog.Slowest(n)
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_ms": float64(obs.SharedSlowLog.Threshold()) / 1e6,
		"capacity":     obs.SharedSlowLog.Capacity(),
		"recorded":     obs.SharedSlowLog.Recorded(),
		"count":        len(traces),
		"traces":       traces,
	})
}

// --- DTDs & documents ---------------------------------------------

func (s *Server) handleLoadDTD(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
		DTD  string `json:"dtd"`
	}
	if !s.decode(w, r, &req) {
		return
	}
	if req.Name == "" || req.DTD == "" {
		s.fail(w, http.StatusBadRequest, "name and dtd are required")
		return
	}
	if err := s.PreloadDTD(req.Name, req.DTD); err != nil {
		s.fail(w, http.StatusBadRequest, "load dtd: %v", err)
		return
	}
	d, _ := s.dtd(req.Name)
	writeJSON(w, http.StatusCreated, map[string]any{
		"name":     req.Name,
		"elements": len(d.ElementNames()),
	})
}

// asyncCollections returns the collections running the async
// propagation policy.
func (s *Server) asyncCollections() []*docirs.Collection {
	var out []*docirs.Collection
	for _, name := range s.sys.Collections() {
		col, err := s.sys.Collection(name)
		if err != nil {
			continue
		}
		if col.Policy() == docirs.PropagateAsync {
			out = append(out, col)
		}
	}
	return out
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req struct {
		DTD       string   `json:"dtd"`
		Documents []string `json:"documents"`
		// Mode selects the ingest pipeline: "sync" (default) answers
		// 201 once documents are stored, leaving propagation to each
		// collection's policy; "async" additionally requires headroom
		// in every async collection's pending queue — a full queue is
		// backpressure (503 + Retry-After) — and answers 202 with the
		// per-collection watermarks the batch was logged under.
		Mode string `json:"mode"`
	}
	if !s.decode(w, r, &req) {
		return
	}
	async := false
	switch req.Mode {
	case "", "sync":
	case "async":
		async = true
	default:
		s.fail(w, http.StatusBadRequest, "unknown ingest mode %q (want sync or async)", req.Mode)
		return
	}
	d, ok := s.dtd(req.DTD)
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown dtd %q (load it via POST /dtds first)", req.DTD)
		return
	}
	if len(req.Documents) == 0 {
		s.fail(w, http.StatusBadRequest, "documents must be non-empty")
		return
	}
	tr := trFrom(r)
	tr.SetDetail(fmt.Sprintf("dtd=%s docs=%d mode=%s", req.DTD, len(req.Documents), req.Mode))
	tr.Attr("documents", len(req.Documents))
	tr.Attr("async", async)
	if len(req.Documents) > s.cfg.MaxBatch {
		s.fail(w, http.StatusRequestEntityTooLarge, "batch of %d exceeds limit %d", len(req.Documents), s.cfg.MaxBatch)
		return
	}
	var asyncColls []*docirs.Collection
	if async {
		asyncColls = s.asyncCollections()
		// Backpressure: never grow a saturated propagation queue.
		// Updates already committed stay correct regardless (queries
		// force pending flushes), so shedding happens before any
		// document is stored.
		for _, col := range asyncColls {
			// A degraded collection (WAL failure) can't durably log new
			// operations; shed before storing anything, like backpressure.
			if deg, reason := col.Degraded(); deg {
				s.stats.backpressured.Add(1)
				s.fail(w, http.StatusServiceUnavailable,
					"collection %q degraded: %s", col.Name(), reason)
				return
			}
			if col.AsyncBacklogFull() {
				s.stats.backpressured.Add(1)
				w.Header().Set("Retry-After", "1")
				s.fail(w, http.StatusServiceUnavailable,
					"collection %q propagation queue full (%d pending); retry later",
					col.Name(), col.PendingOps())
				return
			}
		}
	}
	oids := make([]string, 0, len(req.Documents))
	for i, src := range req.Documents {
		oid, err := s.sys.LoadDocument(d, src)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "document %d: %v (first %d stored)", i, err, len(oids))
			return
		}
		oids = append(oids, oid.String())
		s.stats.ingests.Add(1)
		if async {
			s.stats.asyncIngests.Add(1)
		}
	}
	if !async {
		writeJSON(w, http.StatusCreated, map[string]any{"oids": oids, "count": len(oids)})
		return
	}
	// 202: the documents are durably stored but IRS propagation is
	// still in flight. The watermarks identify this batch's position
	// in each async collection's log; a client needing read-your-
	// writes polls /stats (applied_watermark) or calls /drain.
	watermarks := make(map[string]any, len(asyncColls))
	for _, col := range asyncColls {
		watermarks[col.Name()] = map[string]any{
			"watermark": col.Watermark(),
			"epoch":     col.Epoch(),
		}
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"oids":       oids,
		"count":      len(oids),
		"watermarks": watermarks,
	})
}

func (s *Server) handleDeleteDocument(w http.ResponseWriter, r *http.Request) {
	oid, err := docirs.ParseOID(r.PathValue("oid"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.sys.DeleteDocument(oid); err != nil {
		s.fail(w, http.StatusNotFound, "delete %s: %v", oid, err)
		return
	}
	s.stats.edits.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": oid.String()})
}

func (s *Server) handleSetText(w http.ResponseWriter, r *http.Request) {
	oid, err := docirs.ParseOID(r.PathValue("oid"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req struct {
		Text string `json:"text"`
	}
	if !s.decode(w, r, &req) {
		return
	}
	if err := s.sys.SetText(oid, req.Text); err != nil {
		s.fail(w, http.StatusBadRequest, "set text of %s: %v", oid, err)
		return
	}
	s.stats.edits.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"updated": oid.String()})
}

// --- collections ---------------------------------------------------

func (s *Server) handleListCollections(w http.ResponseWriter, r *http.Request) {
	names := s.sys.Collections()
	out := make([]map[string]any, 0, len(names))
	for _, name := range names {
		col, err := s.sys.Collection(name)
		if err != nil {
			continue
		}
		out = append(out, map[string]any{
			"name":        name,
			"spec":        col.SpecQuery(),
			"docs":        col.DocCount(),
			"policy":      col.Policy().String(),
			"pending_ops": col.PendingOps(),
			"epoch":       col.Epoch(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"collections": out})
}

func (s *Server) handleCreateCollection(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name     string `json:"name"`
		Spec     string `json:"spec"`
		TextMode string `json:"text_mode"`
		Model    string `json:"model"`
		Deriver  string `json:"deriver"`
		Policy   string `json:"policy"`
		NoIndex  bool   `json:"no_index"` // skip the initial IndexObjects pass
	}
	if !s.decode(w, r, &req) {
		return
	}
	if req.Name == "" || req.Spec == "" {
		s.fail(w, http.StatusBadRequest, "name and spec are required")
		return
	}
	// Pipeline tuning comes from the server configuration: the async
	// flusher's queue bound and group-commit window, plus the
	// background compaction threshold.
	opts := docirs.CollectionOptions{
		AsyncMaxPending:  s.cfg.AsyncMaxPending,
		AsyncCoalesceMin: s.cfg.AsyncCoalesceMin,
		AsyncCoalesceMax: s.cfg.AsyncCoalesceMax,
		AutoCompactRatio: s.cfg.CompactRatio,
	}
	var err error
	if opts.TextMode, err = parseTextMode(req.TextMode); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if opts.Policy, err = docirs.ParsePolicy(req.Policy); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Model != "" {
		if opts.Model, err = irs.ModelByName(req.Model); err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if req.Deriver != "" {
		scheme, ok := derive.ByName(req.Deriver)
		if !ok {
			s.fail(w, http.StatusBadRequest, "unknown derivation scheme %q", req.Deriver)
			return
		}
		opts.Deriver = scheme
	}
	col, err := s.sys.CreateCollection(req.Name, req.Spec, opts)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrDuplicate) {
			status = http.StatusConflict
		}
		s.fail(w, status, "create collection: %v", err)
		return
	}
	indexed := 0
	if !req.NoIndex {
		if indexed, err = col.IndexObjects(); err != nil {
			s.sys.DropCollection(req.Name)
			s.fail(w, http.StatusBadRequest, "index collection: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"name":    req.Name,
		"indexed": indexed,
		"policy":  col.Policy().String(),
	})
}

func (s *Server) handleDropCollection(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.sys.DropCollection(name); err != nil {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	// A same-name recreate restarts the per-collection epoch near
	// zero, so search entries keyed under the old collection could
	// collide with it; drop everything.
	s.cache.purge()
	writeJSON(w, http.StatusOK, map[string]any{"dropped": name})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	col, err := s.sys.Collection(r.PathValue("name"))
	if err != nil {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	pending := col.PendingOps()
	if err := col.Flush(); err != nil {
		s.fail(w, http.StatusInternalServerError, "flush: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"collection":  col.Name(),
		"pending_was": pending,
	})
}

// handleDrain blocks until every update logged before the request has
// been propagated — the visibility barrier for async ingest (202
// responses carry the watermark this drain guarantees).
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	col, err := s.sys.Collection(r.PathValue("name"))
	if err != nil {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	pending := col.PendingOps()
	s.stats.drains.Add(1)
	if err := col.Drain(); err != nil {
		s.fail(w, http.StatusInternalServerError, "drain: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"collection":        col.Name(),
		"pending_was":       pending,
		"applied_watermark": col.AppliedWatermark(),
		"epoch":             col.Epoch(),
	})
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	col, err := s.sys.Collection(r.PathValue("name"))
	if err != nil {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	var req struct {
		Query          string   `json:"query"`
		Relevant       []string `json:"relevant"`
		AddTerms       int      `json:"add_terms"`
		OriginalWeight float64  `json:"original_weight"`
	}
	if !s.decode(w, r, &req) {
		return
	}
	if req.Query == "" || len(req.Relevant) == 0 {
		s.fail(w, http.StatusBadRequest, "query and relevant are required")
		return
	}
	expanded, err := col.IRS().ExpandQuery(req.Query, req.Relevant, docirs.FeedbackOptions{
		AddTerms:       req.AddTerms,
		OriginalWeight: req.OriginalWeight,
	})
	if err != nil {
		s.fail(w, http.StatusBadRequest, "expand query: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"collection": col.Name(),
		"original":   req.Query,
		"expanded":   expanded,
	})
}

// --- search & query ------------------------------------------------

type searchHit struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	q := r.URL.Query().Get("q")
	if q == "" {
		s.fail(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	limit := 0
	if l := r.URL.Query().Get("limit"); l != "" {
		var err error
		if limit, err = strconv.Atoi(l); err != nil || limit < 0 {
			s.fail(w, http.StatusBadRequest, "bad limit %q", l)
			return
		}
	}
	col, err := s.sys.Collection(name)
	if err != nil {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	start := time.Now()
	s.qps.Record()
	s.stats.searches.Add(1)
	tr := trFrom(r)
	tr.SetDetail(q)
	tr.Attr("collection", name)
	defer func() {
		if obs.Enabled() {
			obs.Default.Histogram("mmf_collection_request_seconds",
				"collection", name).Observe(time.Since(start))
		}
	}()
	// The limit is pushed down into the IRS instead of truncating a
	// fully evaluated ranking: the engine streams candidates through
	// bounded per-shard heaps and prunes those whose score upper bound
	// cannot reach the k-th best. The cache stores the full k-bucket
	// result, so nearby limits under the same epoch share one
	// evaluation and slice their prefix from it.
	bucket := kBucket(limit)
	key := cacheKey{kind: "search", coll: name, query: q, epoch: col.Epoch(), kbucket: bucket}
	var hits []searchHit
	cached := false
	if v, ok := s.cache.get(key); ok {
		hits = v.([]searchHit)
		cached = true
		s.stats.cacheHits.Add(1)
	} else if v, ok := s.cacheGetFull(key); ok {
		// A cached exhaustive result serves any limit — its prefix is
		// exactly what the top-k engine would return.
		hits = v
		cached = true
		s.stats.cacheHits.Add(1)
	} else {
		s.stats.cacheMisses.Add(1)
		evalStart := time.Now()
		var results []docirs.SearchResult
		if bucket > 0 {
			results, err = s.sys.SearchTopKTraced(name, q, bucket, tr)
		} else {
			results, err = s.sys.Search(name, q)
		}
		if err != nil {
			s.fail(w, http.StatusBadRequest, "search: %v", err)
			return
		}
		hits = make([]searchHit, len(results))
		for i, res := range results {
			hits[i] = searchHit{ID: res.ExtID, Score: res.Score}
		}
		// The measured rebuild cost of this entry: evaluation latency
		// weighted by how many candidates the engine had to score (the
		// top-k path annotates the request trace). The +1 keeps pure
		// latency in play when the attr is absent — exhaustive
		// evaluations and untraced (obs-disabled) requests degrade to
		// latency-only cost rather than zero.
		scored, _ := tr.Int64Attr("candidates_scored")
		cost := time.Since(evalStart).Seconds() * float64(scored+1)
		s.cache.put(key, hits, cost)
		// A top-k evaluation that came back with fewer than its bucket
		// hits is provably exhaustive (the engine ran out of matches
		// before reaching k), so promote it to the unlimited slot too:
		// larger buckets and limit-0 requests then serve from it via
		// cacheGetFull instead of re-evaluating. The guard is load-
		// bearing — a full-bucket result is truncated at k, and parking
		// it under kbucket 0 would serve it to larger limits as if it
		// were the complete ranking, silently dropping hits.
		if bucket > 0 && len(hits) < bucket {
			full := key
			full.kbucket = 0
			s.cache.put(full, hits, cost)
		}
	}
	if cached {
		tr.Attr("cache", "hit")
	} else {
		tr.Attr("cache", "miss")
	}
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"collection": name,
		"query":      q,
		"results":    hits,
		"count":      len(hits),
		"cached":     cached,
		"elapsed_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
}

// cacheGetFull retries a bucketed search-cache miss against the
// unlimited entry (kbucket 0) of the same (collection, query, epoch):
// the exhaustive ranking's prefix answers every limit.
func (s *Server) cacheGetFull(key cacheKey) ([]searchHit, bool) {
	if key.kbucket == 0 {
		return nil, false
	}
	key.kbucket = 0
	v, ok := s.cache.get(key)
	if !ok {
		return nil, false
	}
	return v.([]searchHit), true
}

// queryResult is the cacheable part of a query response.
type queryResult struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Query    string `json:"query"`
		Strategy string `json:"strategy"`
		Explain  bool   `json:"explain"`
	}
	if !s.decode(w, r, &req) {
		return
	}
	if req.Query == "" {
		s.fail(w, http.StatusBadRequest, "query is required")
		return
	}
	strategy, err := parseStrategy(req.Strategy)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Explain {
		plan, err := s.sys.ExplainQuery(req.Query, strategy)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "explain: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"query":    req.Query,
			"strategy": strategy.String(),
			"plan":     plan,
		})
		return
	}
	start := time.Now()
	s.qps.Record()
	s.stats.queries.Add(1)
	tr := trFrom(r)
	tr.SetDetail(req.Query)
	tr.Attr("strategy", strategy.String())
	key := cacheKey{kind: "query", strategy: strategy.String(), query: req.Query, epoch: s.sys.Epoch()}
	var res *queryResult
	cached := false
	if v, ok := s.cache.get(key); ok {
		res = v.(*queryResult)
		cached = true
		s.stats.cacheHits.Add(1)
	} else {
		s.stats.cacheMisses.Add(1)
		evalStart := time.Now()
		rs, err := s.sys.QueryWithStrategy(req.Query, strategy)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "query: %v", err)
			return
		}
		res = &queryResult{Columns: rs.Columns, Rows: make([][]string, len(rs.Rows))}
		for i, row := range rs.Rows {
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = v.String()
			}
			res.Rows[i] = cells
		}
		// VQL evaluation carries no candidates-scored annotation;
		// rebuild cost degrades to the measured latency.
		s.cache.put(key, res, time.Since(evalStart).Seconds())
	}
	if cached {
		tr.Attr("cache", "hit")
	} else {
		tr.Attr("cache", "miss")
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"columns":    res.Columns,
		"rows":       res.Rows,
		"count":      len(res.Rows),
		"strategy":   strategy.String(),
		"cached":     cached,
		"elapsed_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
}
