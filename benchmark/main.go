// Command loadbench is the repository's benchmark: it builds
// cmd/mmfserve, drives it as a separate process over loopback HTTP with
// one of four traffic mixes made from a seed, checks the answers, and
// prints either the end-to-end figures (--trace 0) or the per-layer
// ledger (--trace 1) as one JSON object on the last line of standard
// output. It runs from this directory (the repository root is ..):
// `go run . --workload …` here, or benchmark/run.sh from anywhere. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"
)

func main() {
	var cfg config
	var trace, repeat int
	var smoke bool
	flag.StringVar(&cfg.workload, "workload", "", "search_cold, search_hot, query_mixed or ingest_serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end figures; 1: per-layer ledger from the traced pass")
	flag.BoolVar(&smoke, "smoke", false, "all four workloads on 200 documents with 1 s of traffic each: checks the plumbing, not the numbers")
	flag.IntVar(&repeat, "repeat", 0, "run every workload (or the one named by --workload) N times on seeds seed..seed+N-1 and print each end-to-end metric's spread against its bound")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.docs = corpusDocs
	cfg.warmup = 2 * time.Second
	cfg.setups = 3
	cfg.cycles = 5
	if cfg.trace {
		// setup_s and reopen_s belong to the untraced run; one crash is
		// still needed, for what recovery replays.
		cfg.setups, cfg.cycles = 1, 1
	}

	var err error
	if cfg.root, err = filepath.Abs(".."); err != nil {
		fatal(err)
	}
	if cfg.contract, err = loadContract(filepath.Join(cfg.root, "BENCHMARK.json")); err != nil {
		fatal(err)
	}
	if cfg.serverBin, err = buildServer(cfg.root); err != nil {
		fatal(err)
	}
	switch {
	case smoke:
		cfg.docs, cfg.seconds, cfg.warmup, cfg.setups, cfg.cycles, cfg.lenient = 200, 1, 500*time.Millisecond, 1, 2, true
		for _, w := range workloads {
			cfg.workload = w.name
			rec, err := runOnce(cfg)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			res := rec.Result
			fmt.Fprintf(os.Stderr, "smoke %-13s correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
			if !res.Correct {
				os.Exit(1)
			}
		}
	case repeat > 0:
		if err := repeatAll(cfg, repeat); err != nil {
			fatal(err)
		}
	default:
		rec, err := runOnce(cfg)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(rec.Result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadbench:", err)
	os.Exit(1)
}

// buildServer compiles the program under test from the checkout's own
// sources. The build is not part of any reported time.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "mmfserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mmfserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cmd/mmfserve in %s: %w", root, err)
	}
	return bin, nil
}

// runOnce executes one run, writes its record and cleans up after it,
// also when the generator is told to stop half-way.
func runOnce(cfg config) (*runRecord, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		if s, ok := <-sig; ok {
			r.kill()
			fatal(fmt.Errorf("stopped by %v", s))
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(sig)
	}()

	began := time.Now()
	res, err := r.execute()
	r.record.WallSeconds = time.Since(began).Seconds()
	bad := err != nil || !res.Correct
	if err != nil {
		r.record.Failures = append(r.record.Failures, err.Error())
	}
	if werr := r.writeRecord(); werr != nil && err == nil {
		err = werr
	}
	r.cleanup(bad)
	if err != nil {
		return nil, err
	}
	for _, f := range r.record.Failures {
		fmt.Fprintln(os.Stderr, "loadbench: failed check:", f)
	}
	return &r.record, nil
}

// repeatAll is the repeatability check the acceptance rule uses: n
// runs per workload on n seeds, then for every end-to-end metric the
// inter-quartile spread as a share of the median, against its bound.
// Below them, unbounded, the same for the figures that were candidates
// for a gate and did not get one: each request kind's p95 over the
// whole phase and the fastest of the restart cycles.
func repeatAll(cfg config, n int) error {
	cfg.trace = false
	worst := 0.0
	only := cfg.workload
	row := func(w, name, unit string, vs []float64, bound float64) float64 {
		sp := spread(vs)
		q1, q3 := quartiles(vs)
		fmt.Printf("%-13s %-26s median %12.4f %-5s q1 %12.4f q3 %12.4f spread %6.3f", w, name, median(vs), unit, q1, q3, sp)
		if bound > 0 {
			fmt.Printf(" bound %4.2f share-of-bound %5.2f", bound, sp/bound)
		}
		fmt.Println()
		return sp
	}
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		cfg.workload = w.name
		gated, ungated := map[string][]float64{}, map[string][]float64{}
		for i := 0; i < n; i++ {
			c := cfg
			c.seed = cfg.seed + int64(i)
			rec, err := runOnce(c)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, c.seed, err)
			}
			res := rec.Result
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d checks failed", w.name, c.seed, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				gated[name] = append(gated[name], m.Value)
			}
			for kind, k := range rec.Kinds {
				ungated[kind+"_p95_ms"] = append(ungated[kind+"_p95_ms"], k.P95)
			}
			ungated["reopen_fastest_s"] = append(ungated["reopen_fastest_s"], slices.Min(rec.ReopenSecs))
		}
		for _, m := range cfg.contract.EndToEnd {
			sp := row(w.name, m.Name, m.Unit, gated[m.Name], m.Bound)
			if m.Name != "setup_s" && sp/m.Bound > worst {
				worst = sp / m.Bound
			}
		}
		names := make([]string, 0, len(ungated))
		for name := range ungated {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			row(w.name, "("+name+")", "", ungated[name], 0)
		}
	}
	fmt.Printf("worst spread is %.2f of its bound (target: below 0.33, limit: 1)\n", worst)
	return nil
}
