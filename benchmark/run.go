package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/workload"
)

// config is one invocation.
type config struct {
	root      string // checkout root; every byte written stays below it
	contract  *contract
	serverBin string
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	docs      int // corpusDocs; 200 under --smoke
	warmup    time.Duration
	setups    int  // set-ups per run; setup_s is their median
	cycles    int  // SIGKILL/restart cycles; reopen_s is their median
	lenient   bool // smoke: do not insist on ten samples beyond a percentile
}

// runRecord is written beside the result so a number can be traced
// back to what produced it.
type runRecord struct {
	Commit       string    `json:"commit"`
	GoVersion    string    `json:"go_version"`
	NProc        int       `json:"nproc"`
	ServerProcs  int       `json:"server_gomaxprocs"`
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	Seconds      float64   `json:"seconds"`
	Trace        bool      `json:"trace"`
	Docs         int       `json:"docs"`
	Paragraphs   int       `json:"paragraphs"`
	SGMLBytes    int64     `json:"sgml_bytes"`
	ServerFlags  []string  `json:"mmfserve_flags"`
	SetupSeconds []float64 `json:"setup_seconds"`
	ReopenSecs   []float64 `json:"reopen_seconds"`
	WindowCounts []int     `json:"window_sample_counts"` // samples of the gated request kind in each window p50_ms was taken over
	// Every request kind of the measured phase as the generator saw it,
	// whole phase, in ms (the gated figures are windowed medians of one
	// kind; these are for reading a run).
	Kinds       map[string]kindSummary `json:"request_kinds"`
	WallSeconds float64                `json:"wall_seconds"` // the whole run, set-ups to shutdown
	Failures    []string               `json:"failures,omitempty"`
	Result      *result                `json:"result"`
}

type kindSummary struct {
	Count  int     `json:"count"`
	Failed int     `json:"failed"`
	P50    float64 `json:"p50_ms"`
	P90    float64 `json:"p90_ms"`
	P95    float64 `json:"p95_ms"`
	LagP95 float64 `json:"sched_lag_p95_ms"`
}

// run holds the state of one benchmark run.
type run struct {
	cfg    config
	spec   workloadSpec
	outDir string
	tmpDir string
	procs  int // server GOMAXPROCS = generator connections = nproc

	corpus    *workload.Corpus
	sgmlBytes int64 // SGML bytes currently stored on the server

	dbDir  string
	procMu sync.Mutex  // a stop signal reads proc from its own goroutine
	proc   *serverProc // set through setProc
	ctl    *conn       // control connection: set-up, stats, probes of the oracle

	paraOIDs []string // PARA elements in corpus order
	leafOIDs []string // their text leaves
	docOIDs  []string // MMFDOC roots in corpus order

	subs      []subQuery // score ladders of the mixed workload's sub-queries
	recovered float64    // WAL records the first restart after SIGKILL replayed (traced run)

	attempted, failed int
	record            runRecord
	serverLogs        []string
}

// fail counts n failed checks and keeps the first few descriptions.
func (r *run) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.record.Failures) < 20 {
		r.record.Failures = append(r.record.Failures, fmt.Sprintf(format, args...))
	}
}

func newRun(cfg config) (*run, error) {
	spec, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &run{cfg: cfg, spec: spec, procs: runtime.NumCPU()}
	r.outDir = filepath.Join(cfg.root, "benchmark", "out")
	r.tmpDir = filepath.Join(cfg.root, ".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	for _, d := range []string{r.outDir, r.tmpDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	r.record = runRecord{
		Commit: commitOf(cfg.root), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		ServerProcs: r.procs, Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Docs: cfg.docs,
	}
	return r, nil
}

// commitOf names the commit under test; the driver's checkout is not
// a git repository, so the answer may be "unknown".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", name))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return ref
}

func (r *run) setProc(p *serverProc) {
	r.procMu.Lock()
	r.proc = p
	r.procMu.Unlock()
}

// kill stops the server if it still runs and removes the run's
// temporary files.
func (r *run) kill() {
	r.procMu.Lock()
	if r.proc != nil {
		r.proc.stop(syscall.SIGKILL)
		r.proc = nil
	}
	r.procMu.Unlock()
	os.RemoveAll(r.tmpDir)
}

// cleanup ends a run. Server logs survive only a failed one.
func (r *run) cleanup(failed bool) {
	if r.ctl != nil {
		r.ctl.close()
	}
	r.kill()
	if !failed {
		for _, p := range r.serverLogs {
			os.Remove(p)
		}
	}
}

// start execs the server over r.dbDir and waits until it listens.
func (r *run) start(mapped bool, extra ...string) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	logPath := filepath.Join(r.outDir, fmt.Sprintf("server_%s_%d_%d.log", r.cfg.workload, r.cfg.seed, os.Getpid()))
	if len(r.serverLogs) == 0 || r.serverLogs[len(r.serverLogs)-1] != logPath {
		r.serverLogs = append(r.serverLogs, logPath)
	}
	args := serverFlags(addr, r.dbDir, mapped, extra)
	p, err := startServer(r.cfg.serverBin, args, r.procs, logPath)
	if err != nil {
		return err
	}
	r.setProc(p)
	r.record.ServerFlags = args
	if r.ctl != nil {
		r.ctl.close()
	}
	r.ctl = newConn(addr)
	return p.waitReady(60 * time.Second)
}

// loadDTD registers the document type; the server keeps DTD names in
// memory only, so it is sent again after every restart.
func (r *run) loadDTD() error {
	return r.ctl.doJSON("POST", "/dtds", map[string]string{"name": "mmf", "dtd": workload.MMFDTD}, nil)
}

// ready checks the first correct answer after a (re)start: a planted
// term must rank ten paragraphs.
func (r *run) ready() error {
	rep, err := r.ctl.search("collPara", "www", searchLimit)
	if err != nil {
		return err
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("first search after start returned no hits")
	}
	return nil
}

// traceFlags make the server keep every request trace of the traced
// run in its slow log, which is where admission queue wait is read.
var traceFlags = []string{"-slow-query", "1ns", "-slowlog-size", "4096"}

func (r *run) extraFlags() []string {
	if r.cfg.trace {
		return traceFlags
	}
	return nil
}

// setUp brings a server from nothing to serving the corpus: exec,
// load the DTD and the documents over HTTP, create and index the two
// overlapping collections of the paper, shut down gracefully (which
// saves the IRS snapshots), exec again the way the workload serves
// (heap or -mmap) and wait for the first correct search. It returns
// the wall time of all that.
func (r *run) setUp(n int) (float64, error) {
	r.dbDir = filepath.Join(r.tmpDir, fmt.Sprintf("db%d", n))
	if err := os.MkdirAll(r.dbDir, 0o755); err != nil {
		return 0, err
	}
	if err := r.start(false); err != nil {
		return 0, err
	}
	t0 := r.proc.started
	if err := r.loadDTD(); err != nil {
		return 0, err
	}
	const batch = 100
	for i := 0; i < len(r.corpus.Docs); i += batch {
		end := min(i+batch, len(r.corpus.Docs))
		docs := make([]string, 0, batch)
		for _, d := range r.corpus.Docs[i:end] {
			docs = append(docs, d.SGML)
		}
		var rep struct {
			OIDs []string `json:"oids"`
		}
		if err := r.ctl.doJSON("POST", "/documents", map[string]any{"dtd": "mmf", "documents": docs}, &rep); err != nil {
			return 0, err
		}
		if len(rep.OIDs) != len(docs) {
			return 0, fmt.Errorf("ingest stored %d of %d documents", len(rep.OIDs), len(docs))
		}
	}
	for _, c := range []map[string]string{
		{"name": "collPara", "spec": "ACCESS p FROM p IN PARA;", "policy": "async"},
		{"name": "collDoc", "spec": "ACCESS d FROM d IN MMFDOC;", "policy": "on-query"},
	} {
		if err := r.ctl.doJSON("POST", "/collections", c, nil); err != nil {
			return 0, err
		}
	}
	if err := r.proc.stop(syscall.SIGTERM); err != nil {
		return 0, err
	}
	if err := r.start(r.spec.mapped, r.extraFlags()...); err != nil {
		return 0, err
	}
	if err := r.loadDTD(); err != nil {
		return 0, err
	}
	if err := r.ready(); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// tearDown kills the server and deletes its database.
func (r *run) tearDown() error {
	err := r.proc.stop(syscall.SIGKILL)
	r.setProc(nil)
	os.RemoveAll(r.dbDir)
	return err
}

// discover reads back the object identifiers the server assigned:
// documents, paragraphs and each paragraph's text leaf, all in corpus
// order (identifiers grow in insertion order).
func (r *run) discover() error {
	rep, err := r.ctl.query("ACCESS p, p -> getChildren() FROM p IN PARA;")
	if err != nil {
		return err
	}
	if len(rep.Rows) != r.corpus.TotalParas() {
		return fmt.Errorf("server holds %d paragraphs, corpus has %d", len(rep.Rows), r.corpus.TotalParas())
	}
	type pair struct {
		n          int
		para, leaf string
	}
	pairs := make([]pair, len(rep.Rows))
	for i, row := range rep.Rows {
		n, err := strconv.Atoi(strings.TrimPrefix(row[0], "oid"))
		if err != nil {
			return fmt.Errorf("paragraph id %q: %w", row[0], err)
		}
		pairs[i] = pair{n, row[0], strings.Trim(row[1], "[]")}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].n < pairs[j].n })
	r.paraOIDs, r.leafOIDs = r.paraOIDs[:0], r.leafOIDs[:0]
	for _, p := range pairs {
		r.paraOIDs = append(r.paraOIDs, p.para)
		r.leafOIDs = append(r.leafOIDs, p.leaf)
	}
	drep, err := r.ctl.query("ACCESS d FROM d IN MMFDOC;")
	if err != nil {
		return err
	}
	if len(drep.Rows) != len(r.corpus.Docs) {
		return fmt.Errorf("server holds %d documents, corpus has %d", len(drep.Rows), len(r.corpus.Docs))
	}
	nums := make([]int, len(drep.Rows))
	for i, row := range drep.Rows {
		if nums[i], err = strconv.Atoi(strings.TrimPrefix(row[0], "oid")); err != nil {
			return fmt.Errorf("document id %q: %w", row[0], err)
		}
	}
	sort.Ints(nums)
	r.docOIDs = r.docOIDs[:0]
	for _, n := range nums {
		r.docOIDs = append(r.docOIDs, "oid"+strconv.Itoa(n))
	}
	return nil
}

// phase is the outcome of one stretch of traffic.
type phase struct {
	samples []sample
	length  time.Duration
	cpu     time.Duration // generator process CPU over the stretch
	writer  *writer       // ingest_serve only
}

// traffic runs the workload's traffic for length and returns its
// samples. Each call continues the deterministic request streams
// where the previous one stopped, so warm-up and measurement never
// repeat a request by construction of the stream, only by its
// distribution.
type traffic struct {
	run func(length time.Duration) []sample
	w   *writer
}

// prepare builds the workload's traffic generators.
func (r *run) prepare() (*traffic, error) {
	seed := r.cfg.seed
	addr := r.proc.addr
	switch r.spec.kind {
	case kSearch:
		size, hot := coldPoolSize, r.spec.warm
		if hot {
			size = hotPoolSize
		}
		pool := searchPool(seed, size)
		paths := make([]string, len(pool))
		for i, q := range pool {
			paths[i] = searchPath("collPara", q, searchLimit)
		}
		book := newAnswerBook(len(pool))
		clients := make([]*searchClient, r.spec.clients)
		for i := range clients {
			rng := rand.New(rand.NewSource(seed*31 + int64(i)))
			pick := uniformPick(rng, len(pool))
			if hot {
				pick = zipfPick(rng, len(pool), hotZipfS)
			}
			clients[i] = &searchClient{c: newConn(addr), paths: paths, book: book, pick: pick}
		}
		if hot {
			// Touch every entry twice so the 2Q cache has promoted the
			// whole pool before measurement; the zipfian tail would
			// otherwise still be missing in the first windows.
			for pass := 0; pass < 2; pass++ {
				for i := range paths {
					if status, _, err := r.ctl.do("GET", paths[i], nil); err != nil || status != 200 {
						return nil, fmt.Errorf("warm %s: status %d: %v", paths[i], status, err)
					}
				}
			}
		}
		ones := make([]func() (uint8, bool), len(clients))
		for i, c := range clients {
			ones[i] = c.one
		}
		return closedTraffic(ones), nil

	case kQuery:
		subs, err := r.calibrate(subQueryTexts(seed))
		if err != nil {
			return nil, err
		}
		r.subs = subs
		clients := make([]*queryClient, r.spec.clients)
		for i := range clients {
			clients[i] = &queryClient{
				c: newConn(addr), subs: subs, years: r.corpus.Config.YearRange,
				rng: rand.New(rand.NewSource(seed*37 + int64(i))),
			}
		}
		ones := make([]func() (uint8, bool), len(clients))
		for i, c := range clients {
			ones[i] = c.one
		}
		return closedTraffic(ones), nil

	case kSearchable:
		pool := searchPool(seed, coldPoolSize)
		paraPaths := make([]string, len(pool))
		docPaths := make([]string, len(pool))
		for i, q := range pool {
			paraPaths[i] = searchPath("collPara", q, searchLimit)
			docPaths[i] = searchPath("collDoc", q, searchLimit)
		}
		rrng := rand.New(rand.NewSource(seed*41 + 1))
		reader := newConn(addr)
		// Half as many writes again as the rate calls for, so that no lane
		// runs out (a reused token would no longer be unique).
		perLane := int((r.cfg.warmup.Seconds()+r.cfg.seconds+1)*r.spec.writeRate*1.5) / writeLanes
		w := newWriter(addr, seed, perLane, r.leafOIDs, r.paraOIDs)
		return &traffic{w: w, run: func(length time.Duration) []sample {
			start := time.Now()
			fns := []func(*recorder){
				func(rec *recorder) {
					openLoop(wallClock{}, start, 0, length, r.spec.readRate, rec, func(int, time.Time) (uint8, time.Time, bool) {
						// One search in ten goes to collDoc: its on-query
						// policy propagates only when somebody asks.
						paths := paraPaths
						if rrng.Intn(10) == 0 {
							paths = docPaths
						}
						status, body, err := reader.do("GET", paths[rrng.Intn(len(paths))], nil)
						return kSearch, time.Now(), err == nil && status == 200 && arrayMember(body, "results") != nil
					})
				},
			}
			for i := 0; i < writeLanes; i++ {
				// The lanes take turns: lane i's first write is due i write
				// periods after the phase began.
				turn := time.Duration(float64(i) / r.spec.writeRate * float64(time.Second))
				fns = append(fns, func(rec *recorder) {
					openLoop(wallClock{}, start, turn, length, r.spec.writeRate/writeLanes, rec, w.op(i, rec, start))
				})
			}
			return runClients(fns)
		}}, nil
	}
	return nil, fmt.Errorf("workload %q has no traffic", r.spec.name)
}

// closedTraffic runs each client's request function in a closed loop
// of its own.
func closedTraffic(ones []func() (uint8, bool)) *traffic {
	return &traffic{run: func(length time.Duration) []sample {
		fns := make([]func(*recorder), len(ones))
		start := time.Now()
		for i, one := range ones {
			fns[i] = func(rec *recorder) { closedLoop(start, length, rec, one) }
		}
		return runClients(fns)
	}}
}

// calibrate asks the server for the score ladder of every sub-query,
// three in four on collPara and one in four on collDoc. (An even split
// would put the median statement exactly between the two populations:
// a PARA statement scans ten times the extent of an MMFDOC one.)
func (r *run) calibrate(texts []string) ([]subQuery, error) {
	subs := make([]subQuery, 0, len(texts))
	for i, q := range texts {
		coll := "collPara"
		if i%4 == 3 {
			coll = "collDoc"
		}
		rep, err := r.ctl.search(coll, q, 256)
		if err != nil {
			return nil, err
		}
		sq := subQuery{coll: coll, irs: q}
		for _, h := range rep.Results {
			sq.ladder = append(sq.ladder, h.Score)
		}
		subs = append(subs, sq)
	}
	return subs, nil
}

// queryClient issues mixed VQL statements on one connection.
type queryClient struct {
	c     *conn
	subs  []subQuery
	years [2]int
	rng   *rand.Rand
}

func (q *queryClient) one() (uint8, bool) {
	stmt := mixedStatement(q.rng, q.subs, q.years)
	payload, _ := json.Marshal(map[string]string{"query": stmt.text}) // a map of strings always marshals
	status, body, err := q.c.do("POST", "/query", payload)
	return kQuery, err == nil && status == 200 && arrayMember(body, "rows") != nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs traffic for length and accounts its samples.
func (r *run) measure(t *traffic, length time.Duration) phase {
	if t.w != nil {
		t.w.acksAtMeasure, t.w.textAtMeasure = t.w.acks()
	}
	cpu0 := cpuTime()
	s := t.run(length)
	return phase{samples: s, length: length, cpu: cpuTime() - cpu0, writer: t.w}
}

// latencies splits the correct samples of one kind into w equal time
// windows, in milliseconds.
func latencies(p phase, kind uint8, w int) [][]float64 {
	out := make([][]float64, w)
	for _, s := range p.samples {
		if s.kind != kind || !s.ok {
			continue
		}
		i := int(int64(s.at) * int64(w) / int64(p.length))
		if i >= w {
			i = w - 1
		}
		out[i] = append(out[i], float64(s.lat)/1e6)
	}
	return out
}

// sortedLatencies returns the latencies of the correct samples of one
// kind over the whole phase, ascending, in milliseconds.
func sortedLatencies(p phase, kind uint8) []float64 {
	lat := latencies(p, kind, 1)[0]
	sort.Float64s(lat)
	return lat
}

// count returns how many samples of kind there are and how many of
// them are correct.
func count(p phase, kind uint8) (n, ok int) {
	for _, s := range p.samples {
		if s.kind == kind {
			n++
			if s.ok {
				ok++
			}
		}
	}
	return n, ok
}
