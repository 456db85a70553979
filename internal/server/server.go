// Package server is the concurrent document service layer: an
// HTTP/JSON API over docirs.System, turning the paper's single-user
// coupling into a multi-client query service. It adds what every
// modern treatment of the coupling problem assumes in front of the
// index:
//
//   - an admission layer (counting semaphore) bounding the number of
//     concurrently evaluated queries, with a bounded wait and 503 on
//     overload;
//   - a cost-aware 2Q query-result cache keyed on (kind, collection,
//     strategy, query, epoch, k-bucket). The epoch component ties the
//     cache to the coupling's update log: any committed document
//     mutation advances the epoch (core.Coupling.Epoch /
//     core.Collection.Epoch), so a deferred-propagation policy such as
//     PropagateOnQuery stays correct — a stale entry simply becomes
//     unreachable and ages out;
//   - expvar-style counters (/stats): QPS, cache hit rate, in-flight
//     and rejected requests, and the propagation backlog across
//     collections.
package server

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"time"

	docirs "repro"
	"repro/internal/obs"
)

// Config tunes the service layer. The zero value selects sensible
// defaults for every field.
type Config struct {
	// MaxConcurrent bounds the number of query/search/ingest requests
	// evaluated at once; further requests wait up to QueueTimeout for
	// a slot. Default: 4 × GOMAXPROCS.
	MaxConcurrent int
	// QueueTimeout is the longest a request waits for an admission
	// slot before being rejected with 503. Default: 5s.
	QueueTimeout time.Duration
	// CacheSize is the capacity (entries) of the query-result cache;
	// negative disables caching. Default (0): 1024.
	CacheSize int
	// MaxBatch bounds the number of documents accepted by one ingest
	// request. Default: 1024.
	MaxBatch int
	// AsyncMaxPending bounds each async-policy collection's pending
	// propagation queue; a full queue rejects async ingest with 503.
	// 0 selects the coupling default (4096); negative unbounded.
	AsyncMaxPending int
	// AsyncCoalesceMin/Max bound the background flusher's group-commit
	// window for async-policy collections: each collection adapts its
	// window inside them from observed arrival rate and queue depth.
	// Equal bounds fix the window. 0 selects the coupling defaults
	// (250µs / 8ms).
	AsyncCoalesceMin time.Duration
	AsyncCoalesceMax time.Duration
	// CompactRatio enables tombstone-ratio-triggered background index
	// compaction for collections created through the API; 0 disables.
	CompactRatio float64
	// SlowQueryThreshold is the duration at which a request trace is
	// admitted to the process slow log (/debug/slowlog). Default:
	// 250ms; negative disables the slow log.
	SlowQueryThreshold time.Duration
	// SlowLogSize is the slow log's ring capacity. Default: 128.
	SlowLogSize int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	} else if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.SlowQueryThreshold == 0 {
		c.SlowQueryThreshold = 250 * time.Millisecond
	} else if c.SlowQueryThreshold < 0 {
		c.SlowQueryThreshold = 0 // obs treats 0 as "admit nothing"
	}
	if c.SlowLogSize <= 0 {
		c.SlowLogSize = 128
	}
	return c
}

// Server serves one docirs.System to many concurrent clients.
type Server struct {
	sys   *docirs.System
	cfg   Config
	sem   chan struct{}
	cache *costCache
	mux   *http.ServeMux
	stats counters
	qps   *obs.Rate
	start time.Time

	// dtds names loaded DTDs so ingest requests can reference them.
	dtdMu sync.RWMutex
	dtds  map[string]*docirs.DTD
}

// CacheMetrics snapshots the query cache's internal accounting
// (hit/miss by reason, promotions, admission rejections, evicted
// cost).
func (s *Server) CacheMetrics() CacheMetrics { return s.cache.metrics() }

// New wraps sys in a service layer. The caller keeps ownership of
// sys (and closes it after the HTTP server shuts down).
//
// Pipeline tuning (AsyncMaxPending, AsyncCoalesceMin/Max) is applied to the
// collections already in sys as well: those options are not
// persisted, so collections restored from disk would otherwise run
// with baked-in defaults and ignore the configuration. The
// auto-compaction policy IS persisted per collection (the .irsc
// trailer re-arms it on load), so CompactRatio only arms collections
// that came up with no policy of their own — overwriting would undo
// exactly the per-collection tuning the trailer preserved.
func New(sys *docirs.System, cfg Config) *Server {
	cfg = cfg.withDefaults()
	for _, name := range sys.Collections() {
		col, err := sys.Collection(name)
		if err != nil {
			continue
		}
		col.ConfigureAsync(cfg.AsyncMaxPending, cfg.AsyncCoalesceMin, cfg.AsyncCoalesceMax)
		if ratio, _ := col.IRS().Index().AutoCompact(); ratio == 0 && cfg.CompactRatio > 0 {
			col.IRS().SetAutoCompact(cfg.CompactRatio, 0)
		}
	}
	s := &Server{
		sys:   sys,
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxConcurrent),
		qps:   obs.NewRate(),
		start: time.Now(),
		cache: newCostCache(cfg.CacheSize),
		dtds:  make(map[string]*docirs.DTD),
	}
	// The slow log is process-global (traces from the coupling's flush
	// pipeline land in it too); the serving layer owns its tuning, the
	// way http.DefaultServeMux is owned by whoever serves it.
	obs.SharedSlowLog.Configure(cfg.SlowLogSize, cfg.SlowQueryThreshold)
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Handler returns the HTTP handler (for http.Server or httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// System returns the wrapped system.
func (s *Server) System() *docirs.System { return s.sys }

// acquire takes an admission slot, waiting up to QueueTimeout. It
// returns false when the server is saturated or the client went away.
func (s *Server) acquire(r *http.Request) bool {
	select {
	case s.sem <- struct{}{}:
		s.stats.inflight.Add(1)
		return true
	default:
	}
	t := time.NewTimer(s.cfg.QueueTimeout)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		s.stats.inflight.Add(1)
		return true
	case <-r.Context().Done():
	case <-t.C:
	}
	s.stats.rejected.Add(1)
	return false
}

func (s *Server) release() {
	s.stats.inflight.Add(-1)
	<-s.sem
}

// traceCtxKey carries the request trace through the handler chain.
type traceCtxKey struct{}

// trFrom returns the request's trace context; nil (a valid no-op
// trace) for untraced requests.
func trFrom(r *http.Request) *obs.Trace {
	tr, _ := r.Context().Value(traceCtxKey{}).(*obs.Trace)
	return tr
}

// admitted wraps an evaluation handler with the admission layer plus
// the observability envelope: a per-endpoint latency histogram, a
// request trace (queue wait recorded as its first span) offered to
// the slow log on finish, and the endpoint's share of the QPS window.
func (s *Server) admitted(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := obs.Default.Histogram("mmf_http_request_seconds", "endpoint", endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		tr := obs.StartTrace(endpoint, r.URL.Path)
		if !s.acquire(r) {
			tr.Attr("rejected", true)
			tr.Finish(obs.SharedSlowLog)
			writeError(w, http.StatusServiceUnavailable, "server overloaded: no evaluation slot available")
			return
		}
		tr.Span("queue_wait", time.Since(t0))
		defer func() {
			s.release()
			hist.Observe(time.Since(t0))
			tr.Finish(obs.SharedSlowLog)
		}()
		if tr != nil {
			r = r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, tr))
		}
		h(w, r)
	}
}

// PreloadDTD parses and registers a DTD under name before serving
// (the -dtd flag of mmfserve); equivalent to one POST /dtds request.
func (s *Server) PreloadDTD(name, src string) error {
	d, err := s.sys.LoadDTD(src)
	if err != nil {
		return err
	}
	s.dtdMu.Lock()
	s.dtds[name] = d
	s.dtdMu.Unlock()
	return nil
}

// dtd looks up a loaded DTD by name.
func (s *Server) dtd(name string) (*docirs.DTD, bool) {
	s.dtdMu.RLock()
	defer s.dtdMu.RUnlock()
	d, ok := s.dtds[name]
	return d, ok
}
