package docirs_test

// Serving-layer benchmarks (external test package: internal/server
// imports the root package, so these cannot live in bench_test.go's
// package docirs without an import cycle).

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	docirs "repro"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

// serveFixture builds an HTTP frontend over a loaded system. shards
// partitions the collection's inverted index (0: one shard, the
// pre-sharding layout).
func serveFixture(b testing.TB, cfg server.Config, shards int) *httptest.Server {
	b.Helper()
	sys, err := docirs.Open("")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	dtd, err := sys.LoadDTD(workload.MMFDTD)
	if err != nil {
		b.Fatal(err)
	}
	corpus := workload.Generate(workload.DefaultConfig())
	for i := range corpus.Docs {
		if _, err := sys.LoadDocument(dtd, corpus.Docs[i].SGML); err != nil {
			b.Fatal(err)
		}
	}
	coll, err := sys.CreateCollection("collPara", "ACCESS p FROM p IN PARA;",
		docirs.CollectionOptions{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := coll.IndexObjects(); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(server.New(sys, cfg).Handler())
	b.Cleanup(ts.Close)
	return ts
}

// benchShards is the sharded configuration under benchmark: one
// shard per processor (so single-CPU environments measure the
// no-parallelism baseline honestly).
func benchShards() int { return runtime.GOMAXPROCS(0) }

// BenchmarkServerQueryParallel measures serving throughput of the
// mixed VQL query under parallel clients — cold (cache disabled, so
// every request evaluates) against warm (epoch-keyed cache on; every
// repeat is a hit), the warm variant under both cache policies since
// a single-key hit loop is the fast path both must serve equally
// well. CI logs QPS for the cold/warm gap and the policy trajectory.
func BenchmarkServerQueryParallel(b *testing.B) {
	body, _ := json.Marshal(map[string]string{
		"query": `ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'www') > 0.45;`,
	})
	run := func(b *testing.B, cfg server.Config, shards int) {
		ts := serveFixture(b, cfg, shards)
		// Warm once so both variants measure steady state (the cold
		// variant still evaluates every request; its steady state is
		// the coupling's own buffered path).
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				var out struct {
					Count *int   `json:"count"`
					Error string `json:"error"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if out.Count == nil {
					b.Fatalf("query failed: %s", out.Error)
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	}
	b.Run("cold", func(b *testing.B) { run(b, server.Config{CacheSize: -1}, benchShards()) })
	b.Run("warm-2q", func(b *testing.B) { run(b, server.Config{CacheSize: 1024}, benchShards()) })
	b.Run("cold-1shard", func(b *testing.B) { run(b, server.Config{CacheSize: -1}, 1) })
	// The obs-off variant of cold: the A/B counterpart for measuring
	// what the always-on histograms/traces cost on the serving path
	// (TestObsOverheadBudget asserts the comparison; this subbenchmark
	// makes it visible in ordinary `go test -bench` output too).
	b.Run("cold-obs-off", func(b *testing.B) {
		obs.SetEnabled(false)
		defer obs.SetEnabled(true)
		run(b, server.Config{CacheSize: -1}, benchShards())
	})
}

// TestObsOverheadBudget measures what the observability layer costs
// on the serving query path: interleaved min-of-3 A/B of the cold
// query loop with obs recording on vs off. The budget is 3%; the
// assertion allows generous slack because single-run CI timings are
// noisy — the logged number is the trajectory's signal, the assert is
// a tripwire for accidentally making recording expensive (e.g. a
// lock on the hot path).
func TestObsOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison; skipped in -short")
	}
	body, _ := json.Marshal(map[string]string{
		"query": `ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'www') > 0.45;`,
	})
	ts := serveFixture(t, server.Config{CacheSize: -1}, benchShards())
	post := func(tb testing.TB) {
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			tb.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			tb.Fatalf("query status %d", resp.StatusCode)
		}
	}
	post(t) // warm the coupling's buffered path before timing
	measure := func() float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				post(b)
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	on, off := -1.0, -1.0
	defer obs.SetEnabled(true)
	for i := 0; i < 3; i++ {
		obs.SetEnabled(true)
		if v := measure(); on < 0 || v < on {
			on = v
		}
		obs.SetEnabled(false)
		if v := measure(); off < 0 || v < off {
			off = v
		}
	}
	obs.SetEnabled(true)
	pct := (on - off) / off * 100
	t.Logf("obs overhead on server query path: on=%.0f ns/op off=%.0f ns/op -> %+.2f%% (target <= 3%%)", on, off, pct)
	if pct > 25 {
		t.Errorf("obs overhead %.1f%% is far beyond the 3%% budget; recording is on a hot path", pct)
	}
}

// BenchmarkServerSearchParallel measures the raw IRS search endpoint
// under parallel clients with the cache on, single-shard against
// sharded.
func BenchmarkServerSearchParallel(b *testing.B) {
	run := func(b *testing.B, shards int) {
		ts := serveFixture(b, server.Config{}, shards)
		url := ts.URL + "/collections/collPara/search?q=www"
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				resp, err := http.Get(url)
				if err != nil {
					b.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("search status %d", resp.StatusCode)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	}
	b.Run("1shard", func(b *testing.B) { run(b, 1) })
	b.Run("sharded", func(b *testing.B) { run(b, benchShards()) })
}
