package core

import (
	"time"

	"repro/internal/obs"
)

// flusher is the per-collection background propagation worker behind
// PropagateAsync. The update hook logs operations and kicks the
// flusher (non-blocking, coalescing); the flusher waits out a short
// group-commit window so consecutive updates land in one flush
// pipeline — the log's cancellation rules (Section 4.6) then collapse
// redundant work and the whole group commits as a single index batch.
//
// After every flush the controller re-targets the window inside
// [asyncCoalesceMin, asyncCoalesceMax] from the observed arrival rate
// (EWMA of ops logged per second) and the pending-queue depth. An
// idle collection converges on the floor — a lone update waits
// microseconds, not the full window — while a burst drives the window
// toward the ceiling, where each flush amortizes over a larger group
// commit and the log's cancellation rules see more collapsible work.
// Equal bounds give the controller a constant target: a fixed window.
//
// The flusher owns no data: everything flows through Collection.Flush,
// which serializes with query-forced and manual flushes, so a query
// issued while the flusher lags simply forces the flush itself
// (PropagateOnQuery semantics) and correctness never depends on the
// flusher's pace.
type flusher struct {
	col  *Collection
	kick chan struct{} // capacity 1: pending-work flag
	stop chan struct{}
	done chan struct{}

	// Adaptive-controller state, touched only by the loop goroutine.
	ewmaRate float64 // smoothed ops logged per second
	lastOps  int64   // OpsLogged at the previous adapt step
	lastAt   time.Time
}

func newFlusher(col *Collection) *flusher {
	f := &flusher{
		col:    col,
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		lastAt: time.Now(),
	}
	f.lastOps = col.stats.OpsLogged.Load()
	go f.loop()
	return f
}

func (f *flusher) loop() {
	defer close(f.done)
	hist := obs.Default.Histogram("mmf_coalesce_window_seconds", "collection", f.col.name)
	for {
		select {
		case <-f.stop:
			return
		case <-f.kick:
		}
		w := f.col.CoalesceWindow()
		hist.Observe(w)
		t := time.NewTimer(w)
		select {
		case <-f.stop:
			t.Stop()
			f.flush() // don't strand the updates that woke us
			return
		case <-t.C:
		}
		f.flush()
		f.adapt()
	}
}

// flush runs one group commit, recording failures in the collection's
// stats (there is no caller to return them to; a later query or Drain
// retries by forcing its own flush).
func (f *flusher) flush() {
	f.col.stats.AsyncFlushes.Add(1)
	if err := f.col.Flush(); err != nil {
		f.col.noteFlushError(err)
	}
}

// Adaptive-controller tuning. rateFull is the arrival rate (ops/s)
// at which the window saturates at its ceiling; depth saturates it
// at half the backlog bound (a queue past half full wants the widest
// batches the latency budget allows, well before backpressure).
// rateTau smooths the rate estimate; shorter than a burst, longer
// than one flush interval.
const (
	coalesceRateFull  = 5000.0
	coalesceDepthFrac = 0.5
	coalesceRateTau   = 100 * time.Millisecond
)

// adapt advances the rate estimate and moves the coalescing window
// one controller step after a flush.
func (f *flusher) adapt() {
	col := f.col
	col.mu.RLock()
	min, max := col.asyncCoalesceMin, col.asyncCoalesceMax
	depthCap := col.asyncMaxPending
	prev := col.coalesceNanos.Load()
	col.mu.RUnlock()
	now := time.Now()
	dt := now.Sub(f.lastAt)
	if dt <= 0 {
		dt = time.Nanosecond
	}
	ops := col.stats.OpsLogged.Load()
	inst := float64(ops-f.lastOps) / dt.Seconds()
	// EWMA with a time-proportional gain: back-to-back flushes barely
	// move the estimate, a long-idle gap mostly replaces it.
	alpha := float64(dt) / float64(dt+coalesceRateTau)
	f.ewmaRate += alpha * (inst - f.ewmaRate)
	f.lastOps, f.lastAt = ops, now
	next := adaptCoalesceWindow(time.Duration(prev),
		f.ewmaRate, col.PendingOps(), depthCap, min, max)
	// A ConfigureAsync since the read above re-seeded the window under
	// new bounds; a step computed from the old ones must not replace it.
	col.coalesceNanos.CompareAndSwap(prev, int64(next))
}

// adaptCoalesceWindow is one step of the window controller, pure so
// tests can drive it deterministically. Load is the larger of the
// rate and queue-depth signals, each clamped to [0, 1]; the target
// window interpolates [min, max] linearly on load, and the returned
// window moves halfway from prev toward it — geometric convergence
// (under constant load the window reaches the target's neighborhood
// in a handful of flushes) without slamming the window around on a
// single out-of-character flush.
func adaptCoalesceWindow(prev time.Duration, rate float64, depth, depthCap int, min, max time.Duration) time.Duration {
	if max <= min {
		return min
	}
	load := rate / coalesceRateFull
	if depthCap > 0 {
		if d := float64(depth) / (coalesceDepthFrac * float64(depthCap)); d > load {
			load = d
		}
	}
	if load < 0 {
		load = 0
	} else if load > 1 {
		load = 1
	}
	target := float64(min) + load*float64(max-min)
	next := time.Duration(float64(prev) + (target-float64(prev))/2)
	if next < min {
		next = min
	} else if next > max {
		next = max
	}
	return next
}

// shutdown stops the loop and waits for any in-flight flush to
// finish.
func (f *flusher) shutdown() {
	close(f.stop)
	<-f.done
}

// startFlusher launches the background flusher if it is not running.
func (col *Collection) startFlusher() {
	col.mu.Lock()
	defer col.mu.Unlock()
	if col.flusher == nil {
		col.flusher = newFlusher(col)
	}
}

// stopFlusher stops the background flusher (idempotent). Pending
// updates stay in the log; the next query, Drain or policy flush
// propagates them.
func (col *Collection) stopFlusher() {
	col.mu.Lock()
	f := col.flusher
	col.flusher = nil
	col.mu.Unlock()
	if f != nil {
		f.shutdown()
	}
}

// setAsyncTuning normalizes and stores the async-ingest tuning and
// re-seeds the coalescing window at the new floor. For maxPending, 0
// selects the default and negative unbounds the queue. For the window
// bounds, 0 selects the defaults and max is clamped to at least min.
// The caller holds col.mu, or the collection is not yet published.
func (col *Collection) setAsyncTuning(maxPending int, min, max time.Duration) {
	switch {
	case maxPending == 0:
		col.asyncMaxPending = defaultAsyncMaxPending
	case maxPending < 0:
		col.asyncMaxPending = 0
	default:
		col.asyncMaxPending = maxPending
	}
	if min <= 0 {
		min = defaultAsyncCoalesceMin
	}
	if max <= 0 {
		max = defaultAsyncCoalesceMax
	}
	if max < min {
		max = min
	}
	col.asyncCoalesceMin, col.asyncCoalesceMax = min, max
	col.coalesceNanos.Store(int64(min))
}

// ConfigureAsync retunes the async-ingest machinery at runtime: the
// pending-queue bound and the coalescing window's [min, max] bounds
// (0 selects the defaults, 250µs/8ms; equal bounds fix the window). A
// running background flusher restarts under the new tuning.
// Collection options are not persisted, so serving layers call this
// at startup to give restored collections the configured tuning.
func (col *Collection) ConfigureAsync(maxPending int, min, max time.Duration) {
	col.mu.Lock()
	col.setAsyncTuning(maxPending, min, max)
	running := col.flusher != nil
	col.mu.Unlock()
	if running {
		col.stopFlusher()
		col.startFlusher()
		col.kickFlusher() // re-cover anything logged across the swap
	}
}

// CoalesceWindow returns the group-commit window the background
// flusher currently waits out: the controller's latest output.
func (col *Collection) CoalesceWindow() time.Duration {
	return time.Duration(col.coalesceNanos.Load())
}

// CoalesceMin returns the coalescing window floor.
func (col *Collection) CoalesceMin() time.Duration {
	col.mu.RLock()
	defer col.mu.RUnlock()
	return col.asyncCoalesceMin
}

// CoalesceMax returns the coalescing window ceiling.
func (col *Collection) CoalesceMax() time.Duration {
	col.mu.RLock()
	defer col.mu.RUnlock()
	return col.asyncCoalesceMax
}

// kickFlusher signals pending work to the background flusher
// (non-blocking; a kick while one is pending folds into it — that is
// the group-commit coalescing).
func (col *Collection) kickFlusher() {
	col.mu.RLock()
	f := col.flusher
	col.mu.RUnlock()
	if f == nil {
		return
	}
	select {
	case f.kick <- struct{}{}:
	default:
	}
}
