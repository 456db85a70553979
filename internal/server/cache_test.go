package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"testing"
)

func ck(q string) cacheKey { return cacheKey{kind: "search", coll: "c", query: q} }

// TestCostCacheScanResistance: a flood of one-shot keys (each put
// once, never read) drains through the probationary queue and never
// displaces promoted hot entries — the failure mode the 2Q structure
// exists to prevent (a recency LRU of the same budget would evict
// every hot entry).
func TestCostCacheScanResistance(t *testing.T) {
	c := newCostCache(8) // probation 2, main 6
	hot := []cacheKey{ck("h1"), ck("h2"), ck("h3")}
	for i, k := range hot {
		c.put(k, i, 1)
		if _, ok := c.get(k); !ok { // first re-reference promotes
			t.Fatalf("fresh put of %v missed", k)
		}
	}
	for i := 0; i < 50; i++ {
		c.put(ck(fmt.Sprintf("scan%d", i)), i, 0.5)
	}
	for i, k := range hot {
		v, ok := c.get(k)
		if !ok || v != i {
			t.Fatalf("hot key %v flushed by one-shot scan (v=%v ok=%v)", k, v, ok)
		}
	}
	m := c.metrics()
	if m.Promotions != 3 {
		t.Errorf("promotions = %d, want 3", m.Promotions)
	}
	if m.AdmissionRejects < 40 {
		t.Errorf("admission rejections = %d, want ~48", m.AdmissionRejects)
	}
	if m.Evictions != 0 {
		t.Errorf("main-segment evictions = %d, want 0", m.Evictions)
	}
}

// TestCostCacheGhostReadmission: a key evicted from probation without
// promotion leaves its key in the ghost list; re-putting it within
// the ghost horizon readmits it straight into the main segment.
func TestCostCacheGhostReadmission(t *testing.T) {
	c := newCostCache(8)
	c.put(ck("a"), 1, 1)
	c.put(ck("b"), 2, 1)
	c.put(ck("x"), 3, 1) // probation cap 2: "a" falls out to ghost
	if m := c.metrics(); m.AdmissionRejects != 1 {
		t.Fatalf("admission rejections = %d, want 1", m.AdmissionRejects)
	}
	if _, ok := c.get(ck("a")); ok {
		t.Fatal("evicted probation entry still served a value")
	}
	c.put(ck("a"), 4, 1) // second reference within the ghost horizon
	m := c.metrics()
	if m.GhostReadmits != 1 {
		t.Fatalf("ghost readmissions = %d, want 1", m.GhostReadmits)
	}
	v, ok := c.get(ck("a"))
	if !ok || v != 4 {
		t.Fatalf("readmitted entry = %v, %v", v, ok)
	}
	if m = c.metrics(); m.HitsMain != 1 {
		t.Fatalf("readmitted entry not in main segment: %+v", m)
	}
}

// TestCostCacheCostAwareEviction: with equal frequency, the main
// segment evicts the cheapest-to-rebuild entry first.
func TestCostCacheCostAwareEviction(t *testing.T) {
	c := newCostCache(8) // main cap 6
	for i := 1; i <= 6; i++ {
		k := ck(fmt.Sprintf("k%d", i))
		c.put(k, i, float64(i)) // cost i
		c.get(k)                // promote: freq 2, prio 2i
	}
	k7 := ck("k7")
	c.put(k7, 7, 10)
	c.get(k7) // promote: main now over budget, evicts prio-min = k1
	if _, ok := c.get(ck("k1")); ok {
		t.Fatal("cheapest entry survived eviction")
	}
	for i := 2; i <= 7; i++ {
		if _, ok := c.get(ck(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("expensive entry k%d evicted before cheap k1", i)
		}
	}
	m := c.metrics()
	if m.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", m.Evictions)
	}
	if m.EvictedCost != 1 {
		t.Errorf("evicted cost = %v, want 1 (k1's cost)", m.EvictedCost)
	}
}

// TestCacheRankingsUnderChurn is the race-enabled property test: one
// server hammered by concurrent searches while sync ingest churns the
// epoch. Once quiesced, every query × limit must rank bit-identically
// with and without the cache — the cache is a performance layer and
// must never change served results — and a cached re-request must
// equal its miss-path original.
//
// One system, not two: OID allocation depends on query-triggered
// derivation timing, so two independently hammered systems diverge
// in their external IDs even with identical corpora. The uncached
// reference is a second, cache-less server over the same system.
func TestCacheRankingsUnderChurn(t *testing.T) {
	srv, ts := fixture(t, Config{CacheSize: 32})
	seed(t, ts, 5)
	queries := []string{"www", "sgml", "markup", "filler", "#and(www sgml)"}
	limits := []int{0, 3, 20}
	searchURL := func(ts *httptest.Server, q string, limit int) string {
		return fmt.Sprintf("%s/collections/collPara/search?q=%s&limit=%d",
			ts.URL, url.QueryEscape(q), limit)
	}

	stop := make(chan struct{})
	var hammers sync.WaitGroup
	for g := 0; g < 3; g++ {
		hammers.Add(1)
		go func(g int) {
			defer hammers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(searchURL(ts, queries[(i+g)%len(queries)], limits[i%len(limits)]))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(g)
	}
	// Epoch churn: sync ingest advances the collection epoch per batch.
	for i := 0; i < 15; i++ {
		mustOK(t, "POST", ts.URL+"/documents", map[string]any{
			"dtd": "mmf", "documents": []string{testDoc(100+i, fmt.Sprintf("churn www sgml %d", i))},
		})
	}
	close(stop)
	hammers.Wait()

	// Quiesced (epoch stands still): the cached server, warm from the
	// churn, must rank bit-identically with the uncached one.
	uncached := httptest.NewServer(New(srv.System(), Config{CacheSize: -1}).Handler())
	defer uncached.Close()
	for _, q := range queries {
		for _, limit := range limits {
			want := mustOK(t, "GET", searchURL(uncached, q, limit), nil)["results"]
			out := mustOK(t, "GET", searchURL(ts, q, limit), nil)
			again := mustOK(t, "GET", searchURL(ts, q, limit), nil)
			if again["cached"] != true {
				t.Fatalf("q=%q limit=%d: re-request not served from the cache", q, limit)
			}
			if !reflect.DeepEqual(out["results"], again["results"]) {
				t.Fatalf("q=%q limit=%d: cached response differs from the first", q, limit)
			}
			if !reflect.DeepEqual(want, out["results"]) {
				t.Fatalf("q=%q limit=%d: cached rankings differ from uncached:\nuncached: %v\ncached: %v",
					q, limit, want, out["results"])
			}
		}
	}
}
