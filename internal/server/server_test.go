package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	docirs "repro"
)

const testDTD = `
<!ELEMENT MMFDOC   - -  (LOGBOOK, DOCTITLE, ABSTRACT, PARA+)>
<!ELEMENT LOGBOOK  - O  (#PCDATA)>
<!ELEMENT DOCTITLE - O  (#PCDATA)>
<!ELEMENT ABSTRACT - O  (#PCDATA)>
<!ELEMENT PARA     - O  (#PCDATA)>
`

func testDoc(i int, extra string) string {
	return fmt.Sprintf(`<MMFDOC><LOGBOOK>log %d<DOCTITLE>title %d<ABSTRACT>abstract %d<PARA>the www paragraph %s<PARA>plain filler text</MMFDOC>`, i, i, i, extra)
}

// fixture returns a server over a fresh memory system plus its test
// HTTP frontend.
func fixture(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	sys, err := docirs.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv := New(sys, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// call issues one JSON request and decodes the JSON response.
func call(t testing.TB, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decode response: %v", method, url, err)
	}
	return resp.StatusCode, out
}

func mustOK(t testing.TB, method, url string, body any) map[string]any {
	t.Helper()
	status, out := call(t, method, url, body)
	if status < 200 || status > 299 {
		t.Fatalf("%s %s: status %d: %v", method, url, status, out["error"])
	}
	return out
}

// seed loads the DTD, n documents and the collPara collection.
func seed(t testing.TB, ts *httptest.Server, n int) []string {
	t.Helper()
	mustOK(t, "POST", ts.URL+"/dtds", map[string]any{"name": "mmf", "dtd": testDTD})
	docs := make([]string, n)
	for i := range docs {
		docs[i] = testDoc(i, "sgml markup")
	}
	out := mustOK(t, "POST", ts.URL+"/documents", map[string]any{"dtd": "mmf", "documents": docs})
	mustOK(t, "POST", ts.URL+"/collections", map[string]any{
		"name": "collPara", "spec": "ACCESS p FROM p IN PARA;",
	})
	var oids []string
	for _, v := range out["oids"].([]any) {
		oids = append(oids, v.(string))
	}
	return oids
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := fixture(t, Config{})
	out := mustOK(t, "GET", ts.URL+"/healthz", nil)
	if out["status"] != "ok" {
		t.Fatalf("healthz = %v", out)
	}
	stats := mustOK(t, "GET", ts.URL+"/stats", nil)
	for _, key := range []string{"qps", "cache", "admission", "propagation_backlog", "collections"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("stats missing %q: %v", key, stats)
		}
	}
}

func TestIngestQuerySearchSession(t *testing.T) {
	_, ts := fixture(t, Config{})
	oids := seed(t, ts, 4)
	if len(oids) != 4 {
		t.Fatalf("ingested %d docs, want 4", len(oids))
	}

	// VQL mixed query, cold then cached.
	q := map[string]any{"query": `ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'www') > 0.45;`}
	cold := mustOK(t, "POST", ts.URL+"/query", q)
	if cold["cached"] != false {
		t.Fatalf("first query reported cached: %v", cold)
	}
	if int(cold["count"].(float64)) != 4 {
		t.Fatalf("query matched %v paragraphs, want 4 (one www paragraph per doc)", cold["count"])
	}
	warm := mustOK(t, "POST", ts.URL+"/query", q)
	if warm["cached"] != true {
		t.Fatalf("repeat query not served from cache: %v", warm)
	}
	if fmt.Sprint(warm["rows"]) != fmt.Sprint(cold["rows"]) {
		t.Fatalf("cached rows differ:\ncold %v\nwarm %v", cold["rows"], warm["rows"])
	}

	// Raw IRS search, cold then cached, with limit.
	su := ts.URL + "/collections/collPara/search?q=www"
	coldS := mustOK(t, "GET", su, nil)
	if coldS["cached"] != false || int(coldS["count"].(float64)) != 4 {
		t.Fatalf("cold search = %v", coldS)
	}
	warmS := mustOK(t, "GET", su+"&limit=2", nil)
	if warmS["cached"] != true || int(warmS["count"].(float64)) != 2 {
		t.Fatalf("warm limited search = %v", warmS)
	}

	// EXPLAIN returns a plan without evaluating.
	exp := mustOK(t, "POST", ts.URL+"/query", map[string]any{
		"query": q["query"], "strategy": "irs-first", "explain": true,
	})
	if plan, _ := exp["plan"].(string); plan == "" {
		t.Fatalf("explain returned no plan: %v", exp)
	}

	// Relevance feedback expands the query.
	top := coldS["results"].([]any)[0].(map[string]any)["id"].(string)
	fb := mustOK(t, "POST", ts.URL+"/collections/collPara/feedback", map[string]any{
		"query": "www", "relevant": []string{top},
	})
	if expanded, _ := fb["expanded"].(string); !strings.Contains(expanded, "#wsum") {
		t.Fatalf("feedback expansion = %v", fb)
	}

	// Stats reflect the traffic.
	stats := mustOK(t, "GET", ts.URL+"/stats", nil)
	cache := stats["cache"].(map[string]any)
	if cache["hits"].(float64) < 2 {
		t.Fatalf("expected >=2 cache hits, got %v", cache)
	}
	if stats["queries"].(float64) < 2 || stats["searches"].(float64) < 2 {
		t.Fatalf("stats undercount traffic: %v", stats)
	}
}

func TestCacheInvalidationOnUpdate(t *testing.T) {
	_, ts := fixture(t, Config{})
	seed(t, ts, 2)

	// Collect the text leaves; some of them sit under PARA objects
	// (collPara members), so rewriting all of them must surface in
	// the collection after propagation.
	leavesOut := mustOK(t, "POST", ts.URL+"/query", map[string]any{
		"query": "ACCESS t FROM t IN Text;",
	})
	var leaves []string
	for _, row := range leavesOut["rows"].([]any) {
		leaves = append(leaves, row.([]any)[0].(string))
	}
	if len(leaves) == 0 {
		t.Fatal("no text leaves found")
	}

	q := map[string]any{"query": `ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'zebra') > 0.41;`}
	first := mustOK(t, "POST", ts.URL+"/query", q)
	if int(first["count"].(float64)) != 0 {
		t.Fatalf("zebra should match nothing before the edit: %v", first)
	}
	if mustOK(t, "POST", ts.URL+"/query", q)["cached"] != true {
		t.Fatal("repeat query should hit the cache")
	}

	// Editing leaves advances the epoch; the collection runs under
	// PropagateOnQuery, so the next query must bypass the cache,
	// force propagation and see the new term.
	for _, leaf := range leaves {
		mustOK(t, "PUT", ts.URL+"/documents/"+leaf+"/text", map[string]any{
			"text": "zebra zebra zebra",
		})
	}
	after := mustOK(t, "POST", ts.URL+"/query", q)
	if after["cached"] != false {
		t.Fatalf("query after edit served stale cache entry: %v", after)
	}
	if int(after["count"].(float64)) == 0 {
		t.Fatalf("query after edit missed the new term: %v", after)
	}

	// Deleting the document invalidates again.
	doc := mustOK(t, "POST", ts.URL+"/query", map[string]any{
		"query": "ACCESS d FROM d IN MMFDOC;",
	})
	victim := doc["rows"].([]any)[0].([]any)[0].(string)
	mustOK(t, "DELETE", ts.URL+"/documents/"+victim, nil)
	final := mustOK(t, "POST", ts.URL+"/query", q)
	if final["cached"] != false {
		t.Fatalf("query after delete served stale cache entry: %v", final)
	}
}

func TestCollectionLifecycleAndFlush(t *testing.T) {
	_, ts := fixture(t, Config{})
	seed(t, ts, 2)
	mustOK(t, "POST", ts.URL+"/collections", map[string]any{
		"name": "collDoc", "spec": "ACCESS d FROM d IN MMFDOC;",
		"text_mode": "abstract", "model": "vector", "deriver": "avg", "policy": "manual",
	})
	out := mustOK(t, "GET", ts.URL+"/collections", nil)
	if n := len(out["collections"].([]any)); n != 2 {
		t.Fatalf("listed %d collections, want 2", n)
	}
	mustOK(t, "POST", ts.URL+"/collections/collDoc/flush", nil)
	mustOK(t, "DELETE", ts.URL+"/collections/collDoc", nil)
	if status, _ := call(t, "DELETE", ts.URL+"/collections/collDoc", nil); status != http.StatusNotFound {
		t.Fatalf("double drop returned %d, want 404", status)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := fixture(t, Config{})
	seed(t, ts, 1)
	cases := []struct {
		method, path string
		body         any
		want         int
	}{
		{"POST", "/query", map[string]any{}, http.StatusBadRequest},
		{"POST", "/query", map[string]any{"query": "ACCESS;", "strategy": "bogus"}, http.StatusBadRequest},
		{"POST", "/query", map[string]any{"query": "NOT VQL"}, http.StatusBadRequest},
		{"POST", "/documents", map[string]any{"dtd": "nope", "documents": []string{"<X>"}}, http.StatusNotFound},
		{"POST", "/documents", map[string]any{"dtd": "mmf", "documents": []string{}}, http.StatusBadRequest},
		{"POST", "/collections", map[string]any{"name": "x"}, http.StatusBadRequest},
		{"POST", "/collections", map[string]any{"name": "x", "spec": "NOT VQL"}, http.StatusBadRequest},
		{"POST", "/collections", map[string]any{"name": "collPara", "spec": "ACCESS p FROM p IN PARA;"}, http.StatusConflict},
		{"GET", "/collections/collPara/search?q=www&limit=5abc", nil, http.StatusBadRequest},
		{"GET", "/collections/nope/search?q=www", nil, http.StatusNotFound},
		{"GET", "/collections/collPara/search", nil, http.StatusBadRequest},
		{"DELETE", "/documents/notanoid", nil, http.StatusBadRequest},
	}
	for _, c := range cases {
		if status, out := call(t, c.method, ts.URL+c.path, c.body); status != c.want {
			t.Errorf("%s %s: status %d (want %d): %v", c.method, c.path, status, c.want, out)
		}
	}
}

func TestAdmissionRejectsWhenSaturated(t *testing.T) {
	srv, ts := fixture(t, Config{MaxConcurrent: 1, QueueTimeout: 10 * time.Millisecond})
	seed(t, ts, 1)
	srv.sem <- struct{}{} // occupy the only evaluation slot
	defer func() { <-srv.sem }()
	status, out := call(t, "POST", ts.URL+"/query", map[string]any{
		"query": "ACCESS p FROM p IN PARA;",
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("saturated server returned %d: %v", status, out)
	}
	if srv.stats.rejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}
}

// TestCostCacheBasics: values round-trip through both segments, the
// epoch component separates keys, purge empties the cache, and a
// zero capacity disables it.
func TestCostCacheBasics(t *testing.T) {
	c := newCostCache(8) // probation 2, main 6
	k := func(q string) cacheKey { return cacheKey{kind: "query", query: q} }
	c.put(k("a"), 1, 1)
	if v, ok := c.get(k("a")); !ok || v != 1 { // probation hit, promotes
		t.Fatalf("a = %v, %v", v, ok)
	}
	if v, ok := c.get(k("a")); !ok || v != 1 { // main hit
		t.Fatalf("promoted a = %v, %v", v, ok)
	}
	c.put(k("b"), 2, 1)
	if n := c.metrics().Entries; n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
	// Epoch difference misses.
	c.put(cacheKey{kind: "query", query: "a", epoch: 1}, 9, 1)
	if v, _ := c.get(cacheKey{kind: "query", query: "a", epoch: 1}); v != 9 {
		t.Fatal("epoch-qualified entry lost")
	}
	if v, _ := c.get(k("a")); v != 1 {
		t.Fatalf("epoch-0 entry = %v, want 1", v)
	}
	m := c.metrics()
	if m.HitsMain != 2 || m.HitsProbation != 2 || m.Promotions != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	c.purge()
	if _, ok := c.get(k("a")); ok || c.metrics().Entries != 0 {
		t.Fatalf("purged cache still holds entries: %+v", c.metrics())
	}

	disabled := newCostCache(0)
	disabled.put(k("a"), 1, 1)
	if _, ok := disabled.get(k("a")); ok {
		t.Fatal("disabled cache served an entry")
	}
}
