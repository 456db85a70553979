package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free log-linear latency histogram in the style
// of HdrHistogram: values (nanoseconds) land in buckets whose width
// doubles every octave, with 2^subBits linear sub-buckets per octave,
// bounding the relative quantile error at 1/2^subBits (12.5%). Every
// record is a few atomic adds — no locks, no allocation — so hot
// paths (per-request, per-flush, per-top-k-phase) record
// unconditionally.
type Histogram struct {
	name   string // metric name, e.g. "mmf_http_request_seconds"
	labels string // canonical label list, e.g. `endpoint="search"`

	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [numBuckets]atomic.Int64
}

const (
	subBits  = 3
	subCount = 1 << subBits // linear sub-buckets per octave

	// 60 octaves on top of the exact 0..7ns buckets cover every
	// int64 nanosecond duration; the last bucket absorbs overflow.
	numOctaves = 60
	numBuckets = subCount + numOctaves*subCount
)

// bucketIndex maps a nanosecond value to its bucket. Values below
// subCount get exact buckets; above, the octave is the position of
// the leading bit and the sub-bucket the next subBits bits.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b <= subBits {
		return int(v)
	}
	oct := b - subBits - 1
	sub := int((uint64(v) >> uint(oct)) & (subCount - 1))
	i := subCount + oct*subCount + sub
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// bucketUpper is the largest value bucket i holds (its inclusive
// upper bound); quantiles report this bound, clamped to the true max.
func bucketUpper(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	oct := (i - subCount) / subCount
	sub := (i - subCount) % subCount
	base := int64(1) << uint(oct+subBits)
	width := int64(1) << uint(oct)
	return base + int64(sub+1)*width - 1
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNanos(int64(d)) }

// ObserveNanos records one duration given in nanoseconds.
func (h *Histogram) ObserveNanos(ns int64) {
	if h == nil || disabled.Load() {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if old >= ns || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
}

// Since records the time elapsed since t0 — the usual call shape is
// defer h.Since(time.Now()) or an explicit pair around a stage.
func (h *Histogram) Since(t0 time.Time) { h.Observe(time.Since(t0)) }

// HistSnapshot is a point-in-time copy of a histogram. Count is the
// sum of the copied buckets, so quantiles always rank against exactly
// the observations the snapshot holds; concurrent records during the
// copy can leave SumNS and MaxNS an observation ahead or behind — fine
// for metrics, documented for tests.
type HistSnapshot struct {
	Count  int64
	SumNS  int64
	MaxNS  int64
	counts [numBuckets]int64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.SumNS = h.sum.Load()
	s.MaxNS = h.max.Load()
	for i := range h.buckets {
		s.counts[i] = h.buckets[i].Load()
		s.Count += s.counts[i]
	}
	return s
}

// Quantile returns the value at quantile q (0 < q <= 1) as a
// duration: the upper bound of the bucket holding the q-th
// observation, clamped to the observed maximum. Zero observations
// yield zero.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	target := int64(q*float64(s.Count) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var cum int64
	for i := range s.counts {
		cum += s.counts[i]
		if cum >= target {
			v := bucketUpper(i)
			if v > s.MaxNS {
				v = s.MaxNS
			}
			return time.Duration(v)
		}
	}
	return time.Duration(s.MaxNS)
}

// CumulativeAtMost counts the observations that landed in buckets
// whose entire range is at or below bound (in nanoseconds) — the
// cumulative count backing a Prometheus `le` bucket. The bucket
// straddling the bound is excluded, so an observation may surface one
// ladder step above its true value; the ladder stays monotone and
// sums to Count at +Inf.
func (s HistSnapshot) CumulativeAtMost(boundNS int64) int64 {
	var cum int64
	for i := range s.counts {
		if bucketUpper(i) > boundNS {
			break
		}
		cum += s.counts[i]
	}
	return cum
}

// Summary is the fixed quantile digest serving layers report
// (/stats, BENCH_*.json): count, p50/p90/p99 and max, in
// milliseconds.
type Summary struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// Summary digests the snapshot.
func (s HistSnapshot) Summary() Summary {
	return Summary{
		Count: s.Count,
		P50MS: float64(s.Quantile(0.50)) / 1e6,
		P90MS: float64(s.Quantile(0.90)) / 1e6,
		P99MS: float64(s.Quantile(0.99)) / 1e6,
		MaxMS: float64(s.MaxNS) / 1e6,
	}
}
