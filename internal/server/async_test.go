package server

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// asyncSeed registers the DTD and creates collPara under the async
// propagation policy (before any documents, so every ingest below
// flows through the pipeline).
func asyncSeed(t testing.TB, ts *httptest.Server) {
	t.Helper()
	mustOK(t, "POST", ts.URL+"/dtds", map[string]any{"name": "mmf", "dtd": testDTD})
	mustOK(t, "POST", ts.URL+"/collections", map[string]any{
		"name": "collPara", "spec": "ACCESS p FROM p IN PARA;", "policy": "async",
	})
}

// TestAsyncIngestAndDrain: mode=async answers 202 with the batch's
// watermark; /drain is the visibility barrier after which the
// documents rank.
func TestAsyncIngestAndDrain(t *testing.T) {
	// A far-away coalescing window keeps the background flusher out
	// of the picture, so the test controls visibility explicitly.
	_, ts := fixture(t, Config{AsyncCoalesceMin: time.Hour, AsyncCoalesceMax: time.Hour})
	asyncSeed(t, ts)

	status, out := call(t, "POST", ts.URL+"/documents", map[string]any{
		"dtd": "mmf", "mode": "async",
		"documents": []string{testDoc(1, "asynchronous pipelines"), testDoc(2, "group commits")},
	})
	if status != 202 {
		t.Fatalf("async ingest status = %d: %v", status, out)
	}
	wms, ok := out["watermarks"].(map[string]any)
	if !ok {
		t.Fatalf("202 response missing watermarks: %v", out)
	}
	wm, ok := wms["collPara"].(map[string]any)
	if !ok || wm["watermark"].(float64) <= 0 {
		t.Fatalf("collPara watermark missing/zero: %v", wms)
	}

	drained := mustOK(t, "POST", ts.URL+"/collections/collPara/drain", nil)
	if got := drained["applied_watermark"].(float64); got < wm["watermark"].(float64) {
		t.Fatalf("applied watermark %v below ingest watermark %v", got, wm["watermark"])
	}
	res := mustOK(t, "GET", ts.URL+"/collections/collPara/search?q=asynchronous", nil)
	if res["count"].(float64) == 0 {
		t.Fatalf("drained document not ranked: %v", res)
	}
}

// TestAsyncIngestBackpressure: a full pending queue sheds async
// ingest with 503 + Retry-After; a drain opens it up again. Sync-mode
// ingest is never shed (it makes no visibility promise).
func TestAsyncIngestBackpressure(t *testing.T) {
	srv, ts := fixture(t, Config{AsyncCoalesceMin: time.Hour, AsyncCoalesceMax: time.Hour, AsyncMaxPending: 1})
	asyncSeed(t, ts)

	status, out := call(t, "POST", ts.URL+"/documents", map[string]any{
		"dtd": "mmf", "mode": "async", "documents": []string{testDoc(1, "first")},
	})
	if status != 202 {
		t.Fatalf("first async ingest = %d: %v", status, out)
	}
	status, out = call(t, "POST", ts.URL+"/documents", map[string]any{
		"dtd": "mmf", "mode": "async", "documents": []string{testDoc(2, "second")},
	})
	if status != 503 {
		t.Fatalf("saturated async ingest = %d, want 503: %v", status, out)
	}
	if got := srv.stats.backpressured.Load(); got != 1 {
		t.Errorf("backpressured = %d, want 1", got)
	}
	// Sync mode still lands (propagation is the policy's business).
	status, out = call(t, "POST", ts.URL+"/documents", map[string]any{
		"dtd": "mmf", "documents": []string{testDoc(3, "third")},
	})
	if status != 201 {
		t.Fatalf("sync ingest under backlog = %d: %v", status, out)
	}
	mustOK(t, "POST", ts.URL+"/collections/collPara/drain", nil)
	status, out = call(t, "POST", ts.URL+"/documents", map[string]any{
		"dtd": "mmf", "mode": "async", "documents": []string{testDoc(4, "fourth")},
	})
	if status != 202 {
		t.Fatalf("post-drain async ingest = %d: %v", status, out)
	}
}

// TestIngestModeValidation: unknown modes are rejected.
func TestIngestModeValidation(t *testing.T) {
	_, ts := fixture(t, Config{})
	mustOK(t, "POST", ts.URL+"/dtds", map[string]any{"name": "mmf", "dtd": testDTD})
	status, _ := call(t, "POST", ts.URL+"/documents", map[string]any{
		"dtd": "mmf", "mode": "fire-and-forget", "documents": []string{testDoc(1, "x")},
	})
	if status != 400 {
		t.Fatalf("bad mode status = %d, want 400", status)
	}
}

// TestStatsPipelineMetrics: /stats exposes the ingest-pipeline
// telemetry per collection.
func TestStatsPipelineMetrics(t *testing.T) {
	_, ts := fixture(t, Config{AsyncCoalesceMin: time.Millisecond, AsyncCoalesceMax: time.Millisecond})
	asyncSeed(t, ts)
	mustOK(t, "POST", ts.URL+"/documents", map[string]any{
		"dtd": "mmf", "mode": "async", "documents": []string{testDoc(1, "metrics")},
	})
	mustOK(t, "POST", ts.URL+"/collections/collPara/drain", nil)
	stats := mustOK(t, "GET", ts.URL+"/stats", nil)
	ing, ok := stats["ingest"].(map[string]any)
	if !ok || ing["async_documents"].(float64) != 1 {
		t.Fatalf("ingest section wrong: %v", stats["ingest"])
	}
	coll := stats["collections"].(map[string]any)["collPara"].(map[string]any)
	pipe, ok := coll["pipeline"].(map[string]any)
	if !ok {
		t.Fatalf("collection stats missing pipeline: %v", coll)
	}
	for _, key := range []string{
		"queue_depth", "queue_capacity", "ingest_watermark", "applied_watermark",
		"group_commits", "avg_group_size", "analyze_ms", "commit_ms",
		"flush_errors", "compactions", "tombstone_ratio",
	} {
		if _, ok := pipe[key]; !ok {
			t.Errorf("pipeline missing %q: %v", key, pipe)
		}
	}
	if pipe["group_commits"].(float64) == 0 {
		t.Error("drain committed nothing")
	}
	if pipe["applied_watermark"].(float64) < pipe["ingest_watermark"].(float64) {
		t.Errorf("applied %v < ingest %v after drain", pipe["applied_watermark"], pipe["ingest_watermark"])
	}
	if pipe["flush_errors"].(float64) != 0 {
		t.Errorf("flush errors: %v (%v)", pipe["flush_errors"], pipe["last_flush_error"])
	}
	// collPara's specification is a single binding: the new document's
	// paragraphs came in from the update log, with no re-run over the
	// extent, and /metrics tells the same story.
	if coll["delta_admitted"].(float64) == 0 || coll["spec_reruns"].(float64) != 0 {
		t.Errorf("delta_admitted = %v (want > 0), spec_reruns = %v (want 0)", coll["delta_admitted"], coll["spec_reruns"])
	}
	metrics := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		`mmf_spec_reruns_total{collection="collPara"} 0`,
		fmt.Sprintf(`mmf_delta_admitted_total{collection="collPara"} %v`, coll["delta_admitted"]),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDrainUnknownCollection: 404, not a crash.
func TestDrainUnknownCollection(t *testing.T) {
	_, ts := fixture(t, Config{})
	status, _ := call(t, "POST", ts.URL+"/collections/nope/drain", nil)
	if status != 404 {
		t.Fatalf("status = %d, want 404", status)
	}
}
