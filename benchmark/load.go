package main

import (
	"bytes"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Request kinds a sample is filed under.
const (
	kSearch     = iota // GET /collections/{c}/search
	kQuery             // POST /query
	kIngest            // POST /documents (one document, async) → 202
	kSearchable        // new document due → first search reply for its token listing one of its paragraphs
	kEdit              // PUT /documents/{leaf}/text → 200
	kVisible           // edit due → first search reply for its token listing the edited PARA
	kDelete            // DELETE /documents/{oid}
	numKinds
)

var kindNames = [numKinds]string{"search", "query", "ingest", "searchable", "edit", "visible", "delete"}

// An acknowledgement is the first half of an operation that ends with
// the write being searchable; operations, not halves, are counted.
func isAck(kind uint8) bool { return kind == kIngest || kind == kEdit }

// sample is one timed request.
type sample struct {
	kind uint8
	ok   bool
	at   time.Duration // since the phase began: completion (closed loop) or due instant (open loop)
	lat  time.Duration // closed loop: send → body read; open loop: due → body read
	lag  time.Duration // open loop: how late the request was sent
}

// recorder collects one goroutine's samples; no locking, merged after
// the goroutines have returned.
type recorder struct{ samples []sample }

func (r *recorder) add(s sample) { r.samples = append(r.samples, s) }

// clock lets the open-loop scheduler run under a fake time in tests.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// lateLimit is how late an open-loop request may be sent before it
// counts as failed: past it the generator, not the server, is what
// is being measured.
const lateLimit = time.Second

// openLoop fires op(i) at start + phase + i/rate for every i whose due
// instant lies before start+length, on the calling goroutine: a
// request that overruns its slot delays the ones behind it on this
// connection, and since each is timed from its due instant that
// queueing is charged to the stall that caused it. op is told the due
// instant and returns the instant the reply was complete and whether
// it was correct. (phase lets several connections share one rate by
// taking turns.)
func openLoop(clk clock, start time.Time, phase, length time.Duration, rate float64, rec *recorder,
	op func(i int, dueAt time.Time) (kind uint8, done time.Time, ok bool)) {
	for i := 0; ; i++ {
		due := phase + time.Duration(float64(i)/rate*float64(time.Second))
		if due >= length {
			return
		}
		dueAt := start.Add(due)
		if wait := dueAt.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		lag := clk.Now().Sub(dueAt)
		if lag < 0 {
			lag = 0
		}
		kind, done, ok := op(i, dueAt)
		rec.add(sample{kind: kind, ok: ok && lag <= lateLimit, at: due, lat: done.Sub(dueAt), lag: lag})
	}
}

// closedLoop sends the next request as soon as the previous reply has
// been read, until the phase length has passed.
func closedLoop(start time.Time, length time.Duration, rec *recorder, op func() (kind uint8, ok bool)) {
	for {
		t0 := time.Now()
		if t0.Sub(start) >= length {
			return
		}
		kind, ok := op()
		t1 := time.Now()
		rec.add(sample{kind: kind, ok: ok, at: t1.Sub(start), lat: t1.Sub(t0)})
	}
}

// answerBook remembers a hash of the first answer seen for each pool
// entry; over unchanged data every later answer — cached or not —
// must hash the same.
type answerBook struct{ seen []atomic.Uint64 }

func newAnswerBook(n int) *answerBook { return &answerBook{seen: make([]atomic.Uint64, n)} }

func (b *answerBook) check(i int, answer []byte) bool {
	if answer == nil {
		return false
	}
	sum := uint64(14695981039346656037) // FNV-1a, inline: this runs once per request
	for _, c := range answer {
		sum = (sum ^ uint64(c)) * 1099511628211
	}
	sum |= 1 // 0 means "not seen yet"
	if b.seen[i].CompareAndSwap(0, sum) {
		return true
	}
	return b.seen[i].Load() == sum
}

// countMember reads the integer "count" member of a reply.
func countMember(body []byte) int {
	i := bytes.LastIndex(body, []byte(`"count":`))
	if i < 0 {
		return -1
	}
	j := i + len(`"count":`)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	n, err := strconv.Atoi(string(body[j:k]))
	if err != nil {
		return -1
	}
	return n
}

// searchClient issues pool searches on one connection.
type searchClient struct {
	c     *conn
	paths []string
	book  *answerBook
	pick  func() int
}

func (s *searchClient) one() (uint8, bool) {
	i := s.pick()
	status, body, err := s.c.do("GET", s.paths[i], nil)
	if err != nil || status != 200 {
		return kSearch, false
	}
	return kSearch, s.book.check(i, arrayMember(body, "results"))
}

// uniformPick draws pool indexes uniformly; zipfPick with P(i) ∝ 1/(i+1)^s.
func uniformPick(rng *rand.Rand, n int) func() int { return func() int { return rng.Intn(n) } }

func zipfPick(rng *rand.Rand, n int, s float64) func() int {
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// runClients runs one goroutine per function and returns all their
// samples once every one has returned.
func runClients(fns []func(rec *recorder)) []sample {
	recs := make([]recorder, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		recs[i].samples = make([]sample, 0, 1<<16)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(&recs[i])
		}()
	}
	wg.Wait()
	var all []sample
	for i := range recs {
		all = append(all, recs[i].samples...)
	}
	return all
}
