package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// Fast checks of the benchmark's own arithmetic and generators; no
// server is started here.

func TestStreamsRepeatPerSeed(t *testing.T) {
	if a, b := searchPool(7, 2000), searchPool(7, 2000); !reflect.DeepEqual(a, b) {
		t.Error("same seed gave two different query pools")
	}
	if a, b := searchPool(7, 2000), searchPool(8, 2000); reflect.DeepEqual(a, b) {
		t.Error("different seeds gave the same query pool")
	}
	pool := searchPool(7, 2000)
	seen := map[string]bool{}
	for _, q := range pool {
		if seen[q] {
			t.Fatalf("query %q appears twice in the pool", q)
		}
		seen[q] = true
	}
	render := func(seed int64) string {
		var sb strings.Builder
		for _, o := range writeStream(seed, 1, 300, 1000) {
			fmt.Fprintf(&sb, "%d|%s|%s|%s|%d\n", o.kind, o.token, o.sgml, o.text, o.target)
		}
		subs := []subQuery{{coll: "collPara", irs: "www", ladder: []float64{0.5, 0.49, 0.48, 0.47}}, {coll: "collDoc", irs: "nii", ladder: []float64{0.6, 0.55}}}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			sb.WriteString(mixedStatement(rng, subs, [2]int{1992, 1995}).text)
		}
		return sb.String()
	}
	if render(3) != render(3) {
		t.Error("same seed gave two different request streams")
	}
	if render(3) == render(4) {
		t.Error("different seeds gave the same request stream")
	}
}

func TestWriteStreamDeletesOnlyWhatItIngested(t *testing.T) {
	ingested, deleted, tokens := 0, 0, map[string]bool{}
	for _, o := range writeStream(11, 2, 2000, 500) {
		switch o.kind {
		case opIngest:
			ingested++
			if !strings.Contains(o.sgml, "<PARA>"+o.token+" ") {
				t.Fatalf("document does not carry its token %s", o.token)
			}
		case opDelete:
			if o.target != deleted || o.target >= ingested {
				t.Fatalf("delete of document %d with %d ingested, %d deleted", o.target, ingested, deleted)
			}
			deleted++
		case opEdit:
			if !strings.HasPrefix(o.text, o.token+" ") || o.target < 0 || o.target >= 500 || o.target%writeLanes != 2 {
				t.Fatalf("bad edit %+v", o)
			}
		}
		if o.token != "" {
			if tokens[o.token] {
				t.Fatalf("token %s used twice", o.token)
			}
			tokens[o.token] = true
		}
	}
	if ingested == 0 || deleted == 0 {
		t.Fatalf("stream has %d ingests and %d deletes", ingested, deleted)
	}
	for _, o := range writeStream(11, 3, 200, 500) {
		if tokens[o.token] && o.token != "" {
			t.Fatalf("lanes 2 and 3 share token %s", o.token)
		}
	}
}

func TestDeleteWithNothingAcknowledgedFailsInsteadOfPanicking(t *testing.T) {
	// The stream deletes only after an ingest, but the ingest may not have
	// been acknowledged: the lane then has no document to name.
	w := &writer{}
	w.lanes[0].ops = []writeOp{{kind: opDelete, target: 0}}
	var rec recorder
	if kind, _, ok := w.op(0, &rec, time.Now())(0, time.Now()); kind != kDelete || ok {
		t.Errorf("delete on a lane without documents: kind %d ok %v", kind, ok)
	}
}

func TestMixedStatementThreshold(t *testing.T) {
	subs := []subQuery{{coll: "collPara", irs: "www", ladder: []float64{0.5, 0.49, 0.48}}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		m := mixedStatement(rng, subs, [2]int{1992, 1995})
		if !(m.theta < 0.5 && m.theta > 0.48) || m.theta == 0.49 {
			t.Fatalf("threshold %v is not between two rungs of the ladder", m.theta)
		}
		if !strings.Contains(m.text, fmt.Sprintf("> %.9f", m.theta)) {
			t.Fatalf("statement %q does not carry threshold %v", m.text, m.theta)
		}
	}
}

func TestPercentileMedianAndTheTenBeyondRule(t *testing.T) {
	var vs []float64
	for i := 1; i <= 200; i++ {
		vs = append(vs, float64(i))
	}
	if got := percentile(vs, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := percentile(vs, 0.50); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !supports(200, 0.95) || supports(199, 0.95) || supports(999, 0.99) || !supports(1000, 0.99) {
		t.Error("supports does not ask for ten samples beyond the percentile")
	}
	if _, _, err := windowed([][]float64{vs, vs[:150]}, 0.95, false); err == nil {
		t.Error("a window with 150 samples supported a p95")
	}
	if v, counts, err := windowed([][]float64{vs, vs, vs[:150]}, 0.50, false); err != nil || v != 100 || counts[2] != 150 {
		t.Errorf("windowed p50 = %v %v %v", v, counts, err)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v, want 2.75 8.25", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// fakeClock advances only when told to sleep or when an operation
// says how long it took.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromTheDueInstant(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	var rec recorder
	// 100 requests a second, each taking 30 ms: the connection falls
	// behind by 20 ms per request and every request is charged for it.
	openLoop(clk, start, 0, 100*time.Millisecond, 100, &rec, func(i int, dueAt time.Time) (uint8, time.Time, bool) {
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !dueAt.Equal(want) {
			t.Errorf("request %d due at %v, want %v", i, dueAt, want)
		}
		clk.now = clk.now.Add(30 * time.Millisecond)
		return kSearch, clk.now, true
	})
	if len(rec.samples) != 10 {
		t.Fatalf("%d requests in 100 ms at 100/s, want 10", len(rec.samples))
	}
	for i, s := range rec.samples {
		wantLat := time.Duration(i+1)*30*time.Millisecond - time.Duration(i)*10*time.Millisecond
		wantLag := time.Duration(i) * 20 * time.Millisecond
		if s.lat != wantLat || s.lag != wantLag || s.at != time.Duration(i)*10*time.Millisecond {
			t.Errorf("request %d: at %v latency %v lag %v, want latency %v lag %v", i, s.at, s.lat, s.lag, wantLat, wantLag)
		}
	}
	// Two connections sharing 100/s by taking turns: the second one's
	// requests are due 10 ms after the first one's.
	clk = &fakeClock{now: start}
	rec = recorder{}
	openLoop(clk, start, 10*time.Millisecond, 50*time.Millisecond, 50, &rec, func(_ int, dueAt time.Time) (uint8, time.Time, bool) {
		return kSearch, dueAt, true
	})
	if len(rec.samples) != 2 || rec.samples[0].at != 10*time.Millisecond || rec.samples[1].at != 30*time.Millisecond {
		t.Errorf("phase 10 ms at 50/s for 50 ms: %+v", rec.samples)
	}
	// A generator more than a second late is measuring itself.
	clk = &fakeClock{now: start.Add(1500 * time.Millisecond)}
	rec = recorder{}
	openLoop(clk, start, 0, 10*time.Millisecond, 100, &rec, func(int, time.Time) (uint8, time.Time, bool) { return kSearch, clk.now, true })
	if len(rec.samples) != 1 || rec.samples[0].ok {
		t.Errorf("a request sent 1.5 s late counted as correct: %+v", rec.samples)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{Op: 0, Name: "server.ServeHTTP search", Start: 0, End: 1000, Parent: -1},
		{Op: 0, Name: "docirs.SearchTopK", Start: 2000, End: 2700, Parent: 0},
		{Op: 0, Name: "core.GetIRSResultTopK", Start: 3000, End: 3600, Parent: 1},
		{Op: 0, Name: "irs.ParseQuery", Start: 4000, End: 4050, Parent: 2},
		{Op: 0, Name: "irs.SearchNodeTopKAt", Start: 5000, End: 5700, Parent: 2}, // outlasts its parent by noise
		{Op: 1, Name: "irs.codec.Encode", Start: 6000, End: 6010, Parent: -1},
	}
	want := []time.Duration{300, 100, -150, 50, 700, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	for i, layer := range []string{"server", "docirs", "core", "irs", "irs", "irs.codec"} {
		if got := spans[i].layer(); got != layer {
			t.Errorf("layer of %q = %q, want %q", spans[i].Name, got, layer)
		}
	}
}

func TestArrayMember(t *testing.T) {
	body := []byte(`{"cached":true,"count":2,"elapsed_ms":0.1,"query":"a \"results\":[x","results":[{"id":"oid1","score":0.5},{"id":"o]\"","score":0.25}]}`)
	want := `[{"id":"oid1","score":0.5},{"id":"o]\"","score":0.25}]`
	if got := string(arrayMember(body, "results")); got != want {
		t.Errorf("arrayMember = %s, want %s", got, want)
	}
	if arrayMember([]byte(`{"results":null}`), "results") != nil {
		t.Error("a null member was taken for an array")
	}
	if !hasID(body, "oid1") || hasID(body, "oid2") {
		t.Error("hasID")
	}
	rows := []byte(`{"columns":["p"],"count":2,"rows":[["oid1"],["oid2"]],"strategy":"auto"}`)
	if got := string(arrayMember(rows, "rows")); got != `[["oid1"],["oid2"]]` {
		t.Errorf("rows = %s", got)
	}
}

func TestAnswerBookFlagsAChangedAnswer(t *testing.T) {
	b := newAnswerBook(2)
	if !b.check(0, []byte("[1]")) || !b.check(0, []byte("[1]")) || b.check(0, []byte("[2]")) || b.check(1, nil) {
		t.Error("answer book")
	}
}

// maxBound is the widest regression bound the issue allows a gated
// metric (the harness that runs the benchmark would take 0.25).
const maxBound = 0.15

func TestBenchmarkJSONMeetsTheContractAndTheOutputCarriesEveryName(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" || len(c.Command) == 0 || c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("command %v paths %v run_seconds %d", c.Command, c.Paths, c.RunSeconds)
	}
	for _, w := range c.Workloads {
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range c.Workloads {
		seen[w.Name] = true
	}
	check := func(m metricSpec) {
		if seen[m.Name] || !nameOK.MatchString(m.Name) || !unitOK.MatchString(m.Unit) || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %+v: name used twice, or name, unit or direction outside the contract", m)
		}
		seen[m.Name] = true
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	var setup metricSpec
	for _, m := range c.EndToEnd {
		check(m)
		if m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
		}
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, m := range c.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a wider bound than setup_s", m.Name)
		}
	}
	for _, m := range c.PerLayer {
		check(m)
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	for _, specs := range [][]metricSpec{c.EndToEnd, c.PerLayer} {
		out, err := fill(specs, map[string]float64{specs[0].Name: 1.5})
		if err != nil || len(out) != len(specs) || out[specs[0].Name].Value != 1.5 {
			t.Fatalf("fill: %d of %d names, %v", len(out), len(specs), err)
		}
		for _, m := range specs {
			if got, ok := out[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("output lacks %s with unit %s", m.Name, m.Unit)
			}
		}
	}
	if _, err := fill(c.PerLayer, map[string]float64{"irs.no_such_us": 1}); err == nil {
		t.Error("a value under a name BENCHMARK.json does not list was accepted")
	}
}
