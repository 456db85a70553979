package eval

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	docirs "repro"
	"repro/internal/irs"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
)

// EXP-S8 — durable ingest: what the per-collection write-ahead log
// costs and what it buys.
//
// Cost: the same corpus is ingested into fresh persistent systems
// under three fsync policies — WAL off entirely, group (the default:
// one fsync rides the commit-coalescing window and covers a batch of
// appends) and always (fsync per append) — twice each: a synchronous
// phase that flushes after every document (each document is its own
// durability point) and an asynchronous phase where the background
// flusher group-commits. The group/off elapsed ratios are reported —
// wall clock, so not gated here; benchmark/'s ingest_serve workload
// runs under the group policy and gates the end-to-end cost.
//
// Benefit: every variant must serve bit-identical rankings (the log
// is write-ahead of the same commits, never a different index), and
// the group variant's directory, copied after Drain acknowledged the
// corpus but before any snapshot was saved, must recover by replay
// alone — thousands of logged operations onto an empty index — to
// exactly the rankings the live system served. The recovered system's
// serving surface is checked in-run too: /stats exposes the wal block
// (seq/bytes/fsync trail) and /metrics the fsync-latency and
// bytes-appended series.

// S8Result is the outcome of EXP-S8.
type S8Result struct {
	Docs int
	// Elapsed wall clock per phase and fsync policy ("off" disables
	// the WAL entirely).
	Sync  map[string]time.Duration
	Async map[string]time.Duration
	// Overhead ratios: group elapsed / off elapsed (reported, not gated).
	SyncOverhead  float64
	AsyncOverhead float64
	// RankingsSame: all six variants serve bit-identical rankings.
	RankingsSame bool
	// Recovery-by-replay outcome for the crash copy of the sync-group
	// run: operations replayed and ranking equality with the live run.
	RecoveredOps  int
	RecoveredSame bool
	// WAL shape of the sync-group run at drain time.
	WALBytes   int64
	WALAppends int64
	WALFsyncs  int64
	// Serving-surface checks on the recovered system.
	StatsWAL   bool
	MetricsWAL bool
}

const (
	s8Docs = 450 // sized so the replayed log carries >= s8MinOps operations
	// s8MinOps is the floor on operations the recovery check must
	// replay — the experiment is about surviving a real log, not a
	// toy tail.
	s8MinOps = 4000
)

// s8Models and s8Queries span the ranking surface the durability
// gates compare: every retrieval model times probes over frequent
// vocabulary, rare vocabulary and topic terms.
var s8Models = []struct {
	Name  string
	Model irs.Model
}{
	{"inference", irs.InferenceNet{}},
	{"vector", irs.NewVectorSpace()},
	{"boolean", irs.Boolean{}},
	{"passage", irs.PassageModel{}},
}

var s8Queries = []string{"w001", "w002 w005", "www internet", "sgml markup dtd", "w017"}

// s8Fingerprint renders a collection's rankings — every model × every
// probe query — with exact score bits, sorted by document so equal
// index states produce equal strings.
func s8Fingerprint(col *irs.Collection) (string, error) {
	var sb strings.Builder
	for _, m := range s8Models {
		col.SetModel(m.Model)
		for _, q := range s8Queries {
			res, err := col.Search(q)
			if err != nil {
				return "", err
			}
			sort.Slice(res, func(i, j int) bool { return res[i].ExtID < res[j].ExtID })
			fmt.Fprintf(&sb, "%s/%q:", m.Name, q)
			for _, r := range res {
				sb.WriteString(" " + r.ExtID + "=" + strconv.FormatUint(math.Float64bits(r.Score), 16))
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String(), nil
}

// s8Out is one ingest variant's outcome.
type s8Out struct {
	elapsed time.Duration
	fp      string
	stats   wal.Stats
	hasWAL  bool
}

// s8Ingest loads the corpus into a fresh persistent system at dir.
// Synchronous mode flushes per document; asynchronous mode lets the
// background flusher group-commit. Drain is the acknowledged-durable
// point; with copyTo != "" the directory is cloned right after it —
// before Close writes any snapshot — as the recovery check's crash
// image.
func s8Ingest(dir string, corpus *workload.Corpus, async, noWAL bool, fsync, copyTo string) (*s8Out, error) {
	sys, err := docirs.OpenWith(dir, docirs.OpenOptions{NoWAL: noWAL, WALFsync: fsync})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	dtd, err := sys.LoadDTD(workload.MMFDTD)
	if err != nil {
		return nil, err
	}
	policy := docirs.PropagateManually
	if async {
		policy = docirs.PropagateAsync
	}
	col, err := sys.CreateCollection("collPara", "ACCESS p FROM p IN PARA;",
		docirs.CollectionOptions{Policy: policy})
	if err != nil {
		return nil, err
	}
	out := &s8Out{}
	start := time.Now()
	for i := range corpus.Docs {
		if _, err := sys.LoadDocument(dtd, corpus.Docs[i].SGML); err != nil {
			return nil, err
		}
		if !async {
			if err := col.Flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := col.Drain(); err != nil {
		return nil, err
	}
	out.elapsed = time.Since(start)
	if out.fp, err = s8Fingerprint(col.IRS()); err != nil {
		return nil, err
	}
	out.stats, out.hasWAL = col.IRS().WALStats()
	if copyTo != "" {
		if err := copyDirAll(dir, copyTo); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// s8Recover restarts the crash image like a crashed server would —
// replaying the committed log onto the last snapshot (here: onto
// nothing, the image predates the first save) — and checks both the
// recovered rankings and the serving surface over them.
func s8Recover(dir, wantFP string, res *S8Result) error {
	sys, err := docirs.OpenWith(dir, docirs.OpenOptions{})
	if err != nil {
		return err
	}
	defer sys.Close()
	for _, rep := range sys.RecoveryReports() {
		res.RecoveredOps += rep.Replayed
	}
	col, err := sys.Collection("collPara")
	if err != nil {
		return err
	}
	fp, err := s8Fingerprint(col.IRS())
	if err != nil {
		return err
	}
	res.RecoveredSame = fp == wantFP

	// Serving surface: /stats carries the wal block, /metrics the
	// fsync-latency and appended-bytes series.
	srv := server.New(sys, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	out, err := s7Call(ts, "GET", "/stats", nil)
	if err != nil {
		return err
	}
	colls, _ := out["collections"].(map[string]any)
	coll, _ := colls["collPara"].(map[string]any)
	wb, _ := coll["wal"].(map[string]any)
	enabled, _ := wb["enabled"].(bool)
	seq, _ := wb["seq"].(float64)
	bytes, _ := wb["bytes"].(float64)
	res.StatsWAL = enabled && seq > 0 && bytes > 0
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	body := string(raw)
	res.MetricsWAL = strings.Contains(body, "mmf_wal_fsync_seconds") &&
		strings.Contains(body, "mmf_wal_bytes_total")
	return nil
}

// copyDirAll clones a directory of plain files.
func copyDirAll(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// RunS8 executes EXP-S8.
func RunS8(w io.Writer) (*S8Result, error) {
	root, err := os.MkdirTemp("", "exp-s8-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	cfg := workload.DefaultConfig()
	cfg.Docs = s8Docs
	corpus := workload.Generate(cfg)
	res := &S8Result{
		Docs:  len(corpus.Docs),
		Sync:  make(map[string]time.Duration),
		Async: make(map[string]time.Duration),
	}
	if paras := corpus.TotalParas(); paras < s8MinOps {
		return nil, fmt.Errorf("EXP-S8 corpus too small: %d paragraphs, want >= %d", paras, s8MinOps)
	}

	crash := filepath.Join(root, "crash")
	variants := []struct {
		phase string
		async bool
		noWAL bool
		fsync string
	}{
		{"sync", false, true, ""},
		{"sync", false, false, "group"},
		{"sync", false, false, "always"},
		{"async", true, true, ""},
		{"async", true, false, "group"},
		{"async", true, false, "always"},
	}
	var fps []string
	var groupStats wal.Stats
	for _, v := range variants {
		name := v.fsync
		if v.noWAL {
			name = "off"
		}
		copyTo := ""
		if v.phase == "sync" && name == "group" {
			copyTo = crash
		}
		out, err := s8Ingest(filepath.Join(root, fmt.Sprintf("%s-%s", v.phase, name)),
			corpus, v.async, v.noWAL, v.fsync, copyTo)
		if err != nil {
			return nil, fmt.Errorf("EXP-S8 %s/%s: %w", v.phase, name, err)
		}
		if v.phase == "sync" {
			res.Sync[name] = out.elapsed
		} else {
			res.Async[name] = out.elapsed
		}
		if copyTo != "" {
			groupStats = out.stats
		}
		fps = append(fps, out.fp)
	}
	res.WALBytes = groupStats.Bytes
	res.WALAppends = groupStats.Appends
	res.WALFsyncs = groupStats.Syncs
	res.RankingsSame = true
	for _, fp := range fps[1:] {
		if fp != fps[0] {
			res.RankingsSame = false
		}
	}
	if res.Sync["off"] > 0 {
		res.SyncOverhead = float64(res.Sync["group"]) / float64(res.Sync["off"])
	}
	if res.Async["off"] > 0 {
		res.AsyncOverhead = float64(res.Async["group"]) / float64(res.Async["off"])
	}

	if err := s8Recover(crash, fps[1], res); err != nil {
		return nil, fmt.Errorf("EXP-S8 recovery: %w", err)
	}

	tab := &Table{
		Title: fmt.Sprintf("EXP-S8: durable ingest — %d docs (%d paragraphs), per-doc commits (sync) and group commits (async) under three fsync policies",
			res.Docs, corpus.TotalParas()),
		Header: []string{"fsync", "sync ingest", "async ingest"},
	}
	for _, name := range []string{"off", "group", "always"} {
		tab.AddRow(name,
			fms(float64(res.Sync[name].Microseconds())/1000),
			fms(float64(res.Async[name].Microseconds())/1000))
	}
	tab.Fprint(w)
	fmt.Fprintf(w, "overhead: group/off sync %.2fx, async %.2fx; rankings identical across variants: %v\n",
		res.SyncOverhead, res.AsyncOverhead, res.RankingsSame)
	fmt.Fprintf(w, "wal (sync/group at drain): %d bytes, %d appends, %d fsyncs\n",
		res.WALBytes, res.WALAppends, res.WALFsyncs)
	fmt.Fprintf(w, "recovery: replayed %d ops (floor %d), rankings identical: %v; /stats wal block: %v, /metrics wal series: %v\n\n",
		res.RecoveredOps, s8MinOps, res.RecoveredSame, res.StatsWAL, res.MetricsWAL)

	if !res.RankingsSame {
		return res, fmt.Errorf("EXP-S8 gate tripped: rankings differ across durability variants")
	}
	if !res.RecoveredSame {
		return res, fmt.Errorf("EXP-S8 gate tripped: recovered rankings differ from the live system's")
	}
	if res.RecoveredOps < s8MinOps {
		return res, fmt.Errorf("EXP-S8 gate tripped: recovery replayed %d ops, want >= %d", res.RecoveredOps, s8MinOps)
	}
	if !res.StatsWAL {
		return res, fmt.Errorf("EXP-S8 gate tripped: /stats wal block missing or empty")
	}
	if !res.MetricsWAL {
		return res, fmt.Errorf("EXP-S8 gate tripped: /metrics missing wal series")
	}
	return res, nil
}
