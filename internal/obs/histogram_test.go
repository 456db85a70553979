package obs

import (
	"sync"
	"testing"
	"time"
)

// TestBucketMonotone checks that the bucket mapping is total and
// monotone: every value lands in a bucket whose upper bound is at
// least the value, and bucket upper bounds strictly increase.
func TestBucketMonotone(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < numBuckets; i++ {
		u := bucketUpper(i)
		if u <= prev {
			t.Fatalf("bucketUpper(%d) = %d, not above predecessor %d", i, u, prev)
		}
		prev = u
	}
	for _, v := range []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 999,
		1e3, 1e6, 1e9, int64(time.Hour), 1 << 62} {
		i := bucketIndex(v)
		if u := bucketUpper(i); u < v && i != numBuckets-1 {
			t.Fatalf("value %d landed in bucket %d with upper %d", v, i, u)
		}
		// Relative error bound of the log-linear layout: the bucket
		// upper bound overstates the value by at most 1/subCount.
		if u := bucketUpper(i); v >= subCount && i != numBuckets-1 {
			if float64(u-v) > float64(v)/subCount {
				t.Fatalf("value %d bucket upper %d overshoots by more than 1/%d", v, u, subCount)
			}
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.ObserveNanos(int64(i) * 1000) // 1µs .. 1ms uniform
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.9, 900 * time.Microsecond}, {0.99, 990 * time.Microsecond}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		// The log-linear buckets bound relative error at 1/subCount.
		lo := c.want - c.want/subCount
		hi := c.want + c.want/subCount
		if got < lo || got > hi {
			t.Errorf("q%.2f = %v, want within [%v, %v]", c.q, got, lo, hi)
		}
	}
	if got := time.Duration(s.MaxNS); got != time.Millisecond {
		t.Errorf("max = %v, want 1ms", got)
	}
	if sum := s.Summary(); sum.Count != 1000 || sum.MaxMS != 1.0 {
		t.Errorf("summary = %+v", sum)
	}
}

// TestHistogramConcurrentRecordSnapshot hammers one histogram from
// parallel recorders while snapshots are taken concurrently; run
// under -race this is the histogram-concurrency gate, and the final
// snapshot must account for every observation exactly.
func TestHistogramConcurrentRecordSnapshot(t *testing.T) {
	var h Histogram
	const workers = 8
	const perWorker = 5000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var cum int64
			for _, c := range s.counts {
				cum += c
			}
			// A snapshot taken amid records must still rank against
			// exactly the observations it holds, and can never hold
			// more than a snapshot taken afterwards.
			if cum != s.Count {
				t.Errorf("bucket sum %d != snapshot count %d", cum, s.Count)
				return
			}
			if later := h.Snapshot().Count; cum > later {
				t.Errorf("bucket sum %d exceeds later count %d", cum, later)
				return
			}
			s.Quantile(0.99)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.ObserveNanos(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	var cum int64
	for _, c := range s.counts {
		cum += c
	}
	if cum != s.Count {
		t.Fatalf("bucket sum %d != count %d", cum, s.Count)
	}
}

func TestHistogramDisabled(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)
	var h Histogram
	h.Observe(time.Second)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("disabled histogram recorded %d observations", s.Count)
	}
}

func TestRateWindow(t *testing.T) {
	r := NewRate()
	for i := 0; i < 50; i++ {
		r.Record()
	}
	// The current second is excluded from the average, so PerSecond
	// reports 0 until the second rolls over; only bounds are checked.
	if got := r.PerSecond(); got < 0 || got > 50 {
		t.Fatalf("rate = %v out of bounds", got)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record()
			}
		}()
	}
	wg.Wait()
}
