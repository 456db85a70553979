package core

import (
	"fmt"
	"testing"
	"time"
)

// TestAdaptCoalesceWindowBounds: the controller's output never
// leaves [min, max], for any mix of rate and depth signals.
func TestAdaptCoalesceWindowBounds(t *testing.T) {
	min, max := 500*time.Microsecond, 8*time.Millisecond
	w := min
	cases := []struct {
		rate  float64
		depth int
	}{
		{0, 0}, {10, 0}, {coalesceRateFull, 0}, {1e9, 0},
		{-5, 0}, {0, 4096}, {0, 1 << 20}, {coalesceRateFull / 3, 300},
	}
	for i := 0; i < 200; i++ {
		c := cases[i%len(cases)]
		w = adaptCoalesceWindow(w, c.rate, c.depth, 4096, min, max)
		if w < min || w > max {
			t.Fatalf("step %d (rate %v depth %d): window %v outside [%v, %v]",
				i, c.rate, c.depth, w, min, max)
		}
	}
	// Degenerate bounds collapse to the floor.
	if got := adaptCoalesceWindow(max, 1e9, 1<<20, 4096, min, min); got != min {
		t.Fatalf("min==max window = %v, want %v", got, min)
	}
}

// TestAdaptCoalesceWindowConvergence: under constant load the window
// converges geometrically to the load-proportional target — the
// floor when idle, the ceiling under saturation, the interpolant in
// between — instead of oscillating.
func TestAdaptCoalesceWindowConvergence(t *testing.T) {
	min, max := time.Millisecond, 9*time.Millisecond
	run := func(start time.Duration, rate float64, depth, depthCap int) time.Duration {
		w := start
		for i := 0; i < 64; i++ {
			w = adaptCoalesceWindow(w, rate, depth, depthCap, min, max)
		}
		return w
	}
	near := func(got, want time.Duration, what string) {
		t.Helper()
		d := got - want
		if d < 0 {
			d = -d
		}
		if d > 10*time.Microsecond {
			t.Fatalf("%s: converged to %v, want %v", what, got, want)
		}
	}
	near(run(max, 0, 0, 4096), min, "idle from ceiling")
	near(run(min, 10*coalesceRateFull, 0, 4096), max, "rate-saturated from floor")
	// Half rateFull → load 0.5 → midpoint of [min, max].
	near(run(min, coalesceRateFull/2, 0, 4096), (min+max)/2, "half load")
	// Queue at half the bound saturates the depth signal.
	near(run(min, 0, 2048, 4096), max, "depth-saturated")
	// Unbounded queue: the depth signal is ignored, rate rules.
	near(run(max, 0, 1<<20, 0), min, "depth ignored when unbounded")
}

// TestAdaptiveCoalesceWindowLive: a collection keeps its effective
// window inside the configured bounds while real ingest churns; with
// equal bounds the window stays fixed across flushes.
func TestAdaptiveCoalesceWindowLive(t *testing.T) {
	fx := newFixture(t, "")
	for i := 0; i < 4; i++ {
		fx.addDoc("1994", fmt.Sprintf("doc%d", i), "the world wide web", "the national infrastructure")
	}
	min, max := 200*time.Microsecond, 2*time.Millisecond
	col := fx.paraColl(Options{
		Policy:           PropagateAsync,
		AsyncCoalesceMin: min,
		AsyncCoalesceMax: max,
	})
	if got, want := col.CoalesceMin(), min; got != want {
		t.Fatalf("CoalesceMin = %v, want %v", got, want)
	}
	if got, want := col.CoalesceMax(), max; got != want {
		t.Fatalf("CoalesceMax = %v, want %v", got, want)
	}
	check := func() {
		t.Helper()
		if w := col.CoalesceWindow(); w < min || w > max {
			t.Fatalf("live window %v outside [%v, %v]", w, min, max)
		}
	}
	churn := func(label string) {
		t.Helper()
		for round := 0; round < 6; round++ {
			for _, doc := range fx.docs {
				para := fx.paras(doc)[0]
				if err := fx.store.SetText(fx.store.Children(para)[0],
					fmt.Sprintf("hypertext %s burst %d on the web", label, round)); err != nil {
					t.Fatal(err)
				}
				check()
			}
			waitUntil(t, 5*time.Second, "flusher drained", func() bool {
				return col.PendingOps() == 0
			})
			check()
		}
	}
	check()
	churn("adaptive")
	if got := col.Stats().AsyncFlushes.Load(); got == 0 {
		t.Fatal("adaptive flusher never flushed")
	}

	// Equal bounds: the controller's target is constant, so the
	// window stays put across flushes.
	min, max = 3*time.Millisecond, 3*time.Millisecond
	col.ConfigureAsync(0, min, max)
	if got := col.CoalesceWindow(); got != min {
		t.Fatalf("fixed window = %v, want %v", got, min)
	}
	flushes := col.Stats().AsyncFlushes.Load()
	churn("fixed")
	if got := col.Stats().AsyncFlushes.Load(); got == flushes {
		t.Fatal("flusher never flushed under the fixed window")
	}
	if got := col.CoalesceWindow(); got != min {
		t.Fatalf("fixed window drifted to %v, want %v", got, min)
	}

	// And back: distinct bounds re-seed the window at the floor.
	min, max = 200*time.Microsecond, 2*time.Millisecond
	col.ConfigureAsync(0, min, max)
	if got := col.CoalesceWindow(); got != min {
		t.Fatalf("re-seeded window = %v, want %v", got, min)
	}
	check()
}
