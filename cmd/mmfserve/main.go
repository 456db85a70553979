// Command mmfserve runs the concurrent document service: an
// HTTP/JSON API over a docirs.System, with bounded-concurrency
// admission and an epoch-keyed query-result cache.
//
//	mmfserve -addr :8080 -db ./data
//	mmfserve -addr :8080                      # memory-only
//	mmfserve -addr :8080 -db ./data -dtd mmf.dtd -dtd-name mmf
//
// Example session:
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/dtds \
//	     -d '{"name":"mmf","dtd":"<!ELEMENT ...>"}'
//	curl -s -X POST localhost:8080/documents \
//	     -d '{"dtd":"mmf","documents":["<MMFDOC>..."]}'
//	curl -s -X POST localhost:8080/collections \
//	     -d '{"name":"collPara","spec":"ACCESS p FROM p IN PARA;"}'
//	curl -s -X POST localhost:8080/query \
//	     -d '{"query":"ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, '\''www'\'') > 0.45;"}'
//	curl -s 'localhost:8080/collections/collPara/search?q=%23and(www%20nii)&limit=5'
//	curl -s localhost:8080/stats
//
// A search limit is pushed down into the IRS as a streaming top-k
// evaluation (MaxScore pruning; /stats reports candidates pruned vs
// scored per collection), and the query cache keys on the limit's
// k-bucket so nearby limits share one evaluation.
//
// The query cache is cost-aware 2Q (-cache-size entries): admission
// through a probationary queue keeps one-shot scans from flushing the
// hot set, and eviction keeps entries by frequency × measured rebuild
// cost.
//
// Async ingest (collections created with "policy":"async" propagate
// through a background group-commit flusher; tune with
// -async-max-pending / -compact-ratio — the coalescing window adapts
// to load inside [-async-coalesce-min, -async-coalesce-max], and equal
// bounds fix it):
//
//	curl -s -X POST localhost:8080/documents \
//	     -d '{"dtd":"mmf","mode":"async","documents":["<MMFDOC>..."]}'   # 202 + watermarks
//	curl -s -X POST localhost:8080/collections/collPara/drain            # visibility barrier
//
// Observability: /metrics serves Prometheus text (latency histograms
// per endpoint, per collection and per pipeline stage),
// /debug/slowlog the slowest recent request traces (-slow-query sets
// the admission threshold), logs are structured (-log-format
// text|json, -log-level), and -debug-addr exposes net/http/pprof on a
// separate listener that is never reachable from the service port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	docirs "repro"
	"repro/internal/server"
)

// options carries everything run needs; flags fill one in main.
type options struct {
	addr      string
	dbDir     string
	dtdPath   string
	dtdName   string
	shards    int
	mmap      bool
	noWAL     bool
	walDir    string
	walFsync  string
	debugAddr string // pprof listener; empty disables
	logFormat string // "text" or "json"
	logLevel  string // "debug", "info", "warn" or "error"
	cfg       server.Config
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", ":8080", "listen address")
	flag.StringVar(&opts.dbDir, "db", "", "database directory (empty: memory-only)")
	flag.StringVar(&opts.dtdPath, "dtd", "", "DTD file to preload (optional)")
	flag.StringVar(&opts.dtdName, "dtd-name", "default", "name the preloaded DTD is registered under")
	flag.IntVar(&opts.shards, "shards", 0, "index shards for new collections (0: GOMAXPROCS; existing collections keep their shard count)")
	flag.BoolVar(&opts.mmap, "mmap", false, "serve persisted .irsc collections from read-only memory mappings instead of heap (O(1) open, heap tracks working set; /stats reports heap_bytes vs mapped_bytes)")
	flag.BoolVar(&opts.noWAL, "no-wal", false, "disable the per-collection IRS write-ahead log (persistent mode only; acknowledged updates since the last snapshot are then lost on crash)")
	flag.StringVar(&opts.walDir, "wal-dir", "", "directory for collection WALs (empty: alongside the .irsc snapshots under <db>/irs)")
	flag.StringVar(&opts.walFsync, "wal-fsync", "", "WAL fsync policy: group (default; one fsync covers a commit group, riding the coalescing window), always or off")
	flag.StringVar(&opts.debugAddr, "debug-addr", "", "separate listen address for net/http/pprof (empty: disabled)")
	flag.StringVar(&opts.logFormat, "log-format", "text", "log output format: text or json")
	flag.StringVar(&opts.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	flag.IntVar(&opts.cfg.MaxConcurrent, "max-concurrent", 0, "concurrent evaluation bound (0: 4×GOMAXPROCS)")
	flag.IntVar(&opts.cfg.CacheSize, "cache-size", 1024, "query cache entries (negative: disable)")
	flag.DurationVar(&opts.cfg.QueueTimeout, "queue-timeout", 5*time.Second, "admission wait bound")
	flag.IntVar(&opts.cfg.AsyncMaxPending, "async-max-pending", 0, "pending-update bound per async collection before ingest sheds 503 (0: 4096; negative: unbounded)")
	flag.DurationVar(&opts.cfg.AsyncCoalesceMin, "async-coalesce-min", 0, "async flusher's group-commit window floor (0: 250µs)")
	flag.DurationVar(&opts.cfg.AsyncCoalesceMax, "async-coalesce-max", 0, "async flusher's group-commit window ceiling (0: 8ms; equal to the floor: a fixed window)")
	flag.Float64Var(&opts.cfg.CompactRatio, "compact-ratio", 0.5, "tombstone ratio that triggers background index compaction (0: disable)")
	flag.DurationVar(&opts.cfg.SlowQueryThreshold, "slow-query", 0, "duration admitting a request trace to /debug/slowlog (0: 250ms; negative: disable)")
	flag.IntVar(&opts.cfg.SlowLogSize, "slowlog-size", 0, "slow-log ring capacity (0: 128)")
	flag.Parse()

	if err := run(opts); err != nil {
		fmt.Fprintf(os.Stderr, "mmfserve: %v\n", err)
		os.Exit(1)
	}
}

// newLogger builds the structured logger the process logs through.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", level)
	}
	ho := &slog.HandlerOptions{Level: lv}
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, ho)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, ho)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
}

func run(opts options) error {
	logger, err := newLogger(opts.logFormat, opts.logLevel)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	sys, err := docirs.OpenWith(opts.dbDir, docirs.OpenOptions{
		MappedIRS: opts.mmap,
		NoWAL:     opts.noWAL,
		WALDir:    opts.walDir,
		WALFsync:  opts.walFsync,
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	// A non-empty recovery report means the previous process did not
	// shut down cleanly; say what replay restored on top of the
	// snapshots before serving anything.
	for _, rep := range sys.RecoveryReports() {
		logger.Warn("wal recovery",
			"collection", rep.Collection, "records", rep.Records,
			"replayed", rep.Replayed, "watermark", rep.Watermark,
			"torn_bytes", rep.TornBytes, "uncommitted", rep.Uncommitted)
	}

	shards := opts.shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	sys.Engine().SetDefaultShards(shards)

	srv := server.New(sys, opts.cfg)
	if opts.dtdPath != "" {
		src, err := os.ReadFile(opts.dtdPath)
		if err != nil {
			return err
		}
		if err := srv.PreloadDTD(opts.dtdName, string(src)); err != nil {
			return err
		}
		logger.Info("preloaded DTD", "name", opts.dtdName, "path", opts.dtdPath)
	}

	// pprof lives on its own listener: profiling endpoints leak heap
	// contents and must never ride the service port.
	var debugSrv *http.Server
	if opts.debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Addr: opts.debugAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", opts.debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
		defer debugSrv.Close()
	}

	httpSrv := &http.Server{
		Addr:              opts.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("mmfserve listening",
			"addr", opts.addr, "db", opts.dbDir, "mmap", opts.mmap,
			"shards", shards, "collections", sys.Collections())
		errc <- httpSrv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		logger.Info("shutdown signal received", "signal", sig.String())
		drainStart := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		shutdownErr := httpSrv.Shutdown(ctx)
		if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
			return shutdownErr
		}
		// Drain every collection's propagation queue before Close so
		// async updates reach the index, and report the flush health
		// each collection retires with — a non-empty LastFlushError
		// here is the difference between "clean exit" and "silently
		// dropped updates".
		for _, name := range sys.Collections() {
			col, err := sys.Collection(name)
			if err != nil {
				continue
			}
			pending := col.PendingOps()
			if err := col.Drain(); err != nil {
				logger.Error("collection drain failed", "collection", name, "err", err)
			}
			cs := col.Stats().Snapshot()
			attrs := []any{
				"collection", name,
				"pending_was", pending,
				"flushes", cs.Flushes,
				"flush_errors", cs.FlushErrors,
			}
			if last := col.LastFlushError(); last != "" {
				attrs = append(attrs, "last_flush_error", last)
				logger.Warn("collection drained with flush errors", attrs...)
			} else {
				logger.Info("collection drained", attrs...)
			}
		}
		logger.Info("drained",
			"duration", time.Since(drainStart).String(),
			"timed_out", errors.Is(shutdownErr, context.DeadlineExceeded))
		return nil
	}
}
