package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPropagateAsyncBackground: under PropagateAsync the background
// flusher propagates logged updates on its own — no query has to
// force the flush — and the results match.
func TestPropagateAsyncBackground(t *testing.T) {
	fx := newFixture(t, "")
	fx.addDoc("1994", "webdoc", "the world wide web", "the national infrastructure")
	col := fx.paraColl(Options{Policy: PropagateAsync, AsyncCoalesceMin: time.Millisecond, AsyncCoalesceMax: time.Millisecond})
	if got := col.Policy().String(); got != "async" {
		t.Fatalf("policy = %q, want async", got)
	}
	para := fx.paras(fx.docs[0])[1]
	if err := fx.store.SetText(fx.store.Children(para)[0], "games on the world wide web"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "background flush", func() bool {
		return col.PendingOps() == 0 && col.AppliedWatermark() >= col.Watermark()
	})
	if got := col.Stats().AsyncFlushes.Load(); got == 0 {
		t.Error("background flusher never ran")
	}
	scores, err := col.GetIRSResult("web")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := scores[para]; !ok {
		t.Fatalf("updated paragraph missing from result: %v", scores)
	}
	if got := col.Stats().ForcedFlushes.Load(); got != 0 {
		t.Errorf("query forced %d flushes despite drained backlog", got)
	}
	if got := col.Stats().FlushErrors.Load(); got != 0 {
		t.Errorf("flush errors: %d (%s)", got, col.LastFlushError())
	}
}

// TestAsyncDrain: Drain blocks until everything logged before the
// call is committed, even when the flusher's coalescing window is far
// away.
func TestAsyncDrain(t *testing.T) {
	fx := newFixture(t, "")
	fx.addDoc("1994", "webdoc", "the world wide web", "the national infrastructure")
	col := fx.paraColl(Options{Policy: PropagateAsync, AsyncCoalesceMin: time.Hour, AsyncCoalesceMax: time.Hour})
	para := fx.paras(fx.docs[0])[0]
	if err := fx.store.SetText(fx.store.Children(para)[0], "hypertext on the web"); err != nil {
		t.Fatal(err)
	}
	if col.PendingOps() == 0 {
		t.Fatal("update not logged")
	}
	wm := col.Watermark()
	if err := col.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := col.AppliedWatermark(); got < wm {
		t.Fatalf("AppliedWatermark = %d, want >= %d", got, wm)
	}
	if got := col.PendingOps(); got != 0 {
		t.Fatalf("PendingOps = %d after Drain", got)
	}
	scores, err := col.GetIRSResult("hypertext")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := scores[para]; !ok {
		t.Fatalf("drained update not visible: %v", scores)
	}
	if got := col.Stats().GroupCommits.Load(); got == 0 {
		t.Error("no group commit recorded")
	}
}

// TestAsyncQueryForcesFlush: a query racing ahead of the flusher
// forces propagation itself — PropagateOnQuery semantics are
// preserved under the async policy.
func TestAsyncQueryForcesFlush(t *testing.T) {
	fx := newFixture(t, "")
	fx.addDoc("1994", "webdoc", "the world wide web", "the national infrastructure")
	col := fx.paraColl(Options{Policy: PropagateAsync, AsyncCoalesceMin: time.Hour, AsyncCoalesceMax: time.Hour})
	para := fx.paras(fx.docs[0])[0]
	if err := fx.store.SetText(fx.store.Children(para)[0], "multimedia frameworks"); err != nil {
		t.Fatal(err)
	}
	scores, err := col.GetIRSResult("multimedia")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := scores[para]; !ok {
		t.Fatalf("forced flush did not propagate: %v", scores)
	}
	if got := col.Stats().ForcedFlushes.Load(); got == 0 {
		t.Error("expected the query to force a flush")
	}
}

// TestAsyncBacklogBound: the bounded pending queue reports
// saturation (the serving layer's 503 signal) and recovers after a
// drain.
func TestAsyncBacklogBound(t *testing.T) {
	fx := newFixture(t, "")
	fx.addDoc("1994", "webdoc", "one paragraph", "two paragraph", "three paragraph")
	col := fx.paraColl(Options{
		Policy: PropagateAsync, AsyncCoalesceMin: time.Hour, AsyncCoalesceMax: time.Hour, AsyncMaxPending: 2,
	})
	if col.AsyncMaxPending() != 2 {
		t.Fatalf("AsyncMaxPending = %d", col.AsyncMaxPending())
	}
	if col.AsyncBacklogFull() {
		t.Fatal("backlog full before any update")
	}
	paras := fx.paras(fx.docs[0])
	for i, p := range paras[:2] {
		if err := fx.store.SetText(fx.store.Children(p)[0], fmt.Sprintf("fresh text %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if !col.AsyncBacklogFull() {
		t.Fatalf("backlog not full at %d pending (bound 2)", col.PendingOps())
	}
	if err := col.Drain(); err != nil {
		t.Fatal(err)
	}
	if col.AsyncBacklogFull() {
		t.Error("backlog still full after drain")
	}
}

// TestImmediateFlushErrorsObservable: a propagation failure on the
// post-commit hook path (which has no caller to report to) is counted
// and its message retained.
func TestImmediateFlushErrorsObservable(t *testing.T) {
	fx := newFixture(t, "")
	// The spec query parses but fails at evaluation time (unknown
	// method), so the flush's membership test errors out.
	col, err := fx.coupling.CreateCollection("broken", `ACCESS p FROM p IN PARA WHERE p -> noSuchMethod() > 0;`, Options{
		Policy: PropagateImmediately,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.addDoc("1994", "webdoc", "a paragraph")
	if got := col.Stats().FlushErrors.Load(); got == 0 {
		t.Fatal("flush error on the hook path went uncounted")
	}
	if col.LastFlushError() == "" {
		t.Error("LastFlushError empty")
	}
	// The failed flush drained (and thereby dropped) the logged ops:
	// the drain barrier must refuse to report success, even though
	// the log is empty now.
	if err := col.Drain(); !errors.Is(err, ErrUpdatesLost) {
		t.Fatalf("Drain after dropped ops = %v, want ErrUpdatesLost", err)
	}
}

// TestAsyncPolicySwitch: moving a collection out of PropagateAsync
// stops the flusher (no goroutine leak, subsequent updates only
// propagate on demand); moving back restarts it.
func TestAsyncPolicySwitch(t *testing.T) {
	fx := newFixture(t, "")
	fx.addDoc("1994", "webdoc", "the world wide web")
	col := fx.paraColl(Options{Policy: PropagateAsync, AsyncCoalesceMin: time.Millisecond, AsyncCoalesceMax: time.Millisecond})
	col.SetPolicy(PropagateManually)
	para := fx.paras(fx.docs[0])[0]
	if err := fx.store.SetText(fx.store.Children(para)[0], "manual text"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := col.PendingOps(); got == 0 {
		t.Fatal("update propagated although policy is manual")
	}
	col.SetPolicy(PropagateAsync)
	waitUntil(t, 5*time.Second, "flusher restart", func() bool {
		return col.PendingOps() == 0
	})
}

// TestAsyncConcurrentMutationsAndQueries exercises the full pipeline
// under the race detector: concurrent writers, readers and a final
// drain. Content correctness is asserted by the deterministic final
// texts.
func TestAsyncConcurrentMutationsAndQueries(t *testing.T) {
	fx := newFixture(t, "")
	fx.addDoc("1994", "webdoc",
		"alpha text", "beta text", "gamma text", "delta text")
	col := fx.paraColl(Options{Policy: PropagateAsync, AsyncCoalesceMin: time.Millisecond, AsyncCoalesceMax: time.Millisecond,
		Shards: 4})
	paras := fx.paras(fx.docs[0])
	const rounds = 20
	var wg sync.WaitGroup
	errc := make(chan error, len(paras)+2)
	for w := range paras {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			leaf := fx.store.Children(paras[w])[0]
			for r := 0; r < rounds; r++ {
				if err := fx.store.SetText(leaf, fmt.Sprintf("writer %d round %d retrieval text", w, r)); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := col.GetIRSResult("retrieval"); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if err := col.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := col.PendingOps(); got != 0 {
		t.Fatalf("PendingOps = %d after drain", got)
	}
	if got := col.Stats().FlushErrors.Load(); got != 0 {
		t.Fatalf("flush errors: %d (%s)", got, col.LastFlushError())
	}
	// Every paragraph's final text is deterministic.
	scores, err := col.GetIRSResult("retrieval")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paras {
		if _, ok := scores[p]; !ok {
			t.Errorf("paragraph %v missing from final ranking", p)
		}
	}
}
