package eval

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/irs"
	"repro/internal/workload"
)

// EXP-S6 — zero-copy mmap serving of the .irsc v5 layout vs the heap
// load path. A heap open materializes every posting block (full varint
// decode to validate streams and rebuild statistics), so cold-start
// cost grows with corpus size; the v5 page-aligned layout stores the
// derived statistics in its section tables, and the mapped open
// (irs.OpenMapped / Options{Mapped: true}) parses only those tables
// while posting blocks stay in the read-only file mapping, decoded on
// demand straight from mapped bytes.
//
// The experiment builds one persistent corpus, reports the cold-open
// speedup of the mapped open over the heap open of the very same file
// and the steady-state top-k overhead of searching through the mapping
// (wall clock: reported, not gated — benchmark/ measures both over the
// wire as reopen_s, irs.topk_heap_us and irs.topk_mapped_us), and
// gates two deterministic properties in-run: rankings are
// bit-identical between the two residencies for all four retrieval
// models — including after identical mutations are overlaid on both
// and after a save/reopen folds the mapped collection's overlay back
// into a fresh file — and the mapped collection actually serves
// posting bytes from the mapping (MappedBytes > 0).

// S6Result is the outcome of EXP-S6.
type S6Result struct {
	Shards    int
	Docs      int
	FileBytes int64 // size of the .irsc v5 file under test
	// Cold open of the same file, min of s6OpenRounds attempts each.
	HeapOpen    time.Duration
	MappedOpen  time.Duration
	OpenSpeedup float64
	// Steady-state SearchTopK(k=10) over all queries, min of
	// s6SearchRounds interleaved rounds each.
	HeapSearch     time.Duration
	MappedSearch   time.Duration
	SearchOverhead float64 // MappedSearch/HeapSearch - 1
	// Residency split of the mapped collection (satellite accounting).
	MappedBytes int64
	HeapBytes   int64
	// Bit-identical rankings, all models x queries x {Search, TopK},
	// checked before mutations, after mutations, after Compact and
	// after a save/reopen of the mapped engine.
	RankingsIdentical bool
}

// s6Queries mix term, weighted, phrase and boolean-structured shapes
// so every model's evaluation path crosses the mapped decode route.
var s6Queries = []string{
	"www nii codec",
	"#sum(www nii codec video highway)",
	"#wsum(3 www 2 nii 1 codec)",
	"www web hypertext",
	"#wsum(3 www 1 infrastructure 0.5 #phrase(digital library))",
	"#or(nii #and(sgml markup))",
	"#and(www #not(video))",
}

// s6Models are the four retrieval models the equality gate covers.
var s6Models = []string{"inference-net", "vector", "boolean", "passage"}

const (
	s6K            = 10
	s6HotDocs      = 256
	s6OpenRounds   = 5
	s6SearchRounds = 3
	s6SearchIters  = 20
)

// s6SameResults compares two rankings exactly — struct equality, so
// scores must match bit for bit, not just ordering.
func s6SameResults(a, b []irs.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// s6CheckEqual runs every model over every query on both collections
// (exhaustive and top-k) and fails on the first divergence.
func s6CheckEqual(hc, mc *irs.Collection, stage string) error {
	for _, mn := range s6Models {
		hm, err := irs.ModelByName(mn)
		if err != nil {
			return err
		}
		mm, err := irs.ModelByName(mn)
		if err != nil {
			return err
		}
		hc.SetModel(hm)
		mc.SetModel(mm)
		for _, q := range s6Queries {
			hf, err := hc.Search(q)
			if err != nil {
				return err
			}
			mf, err := mc.Search(q)
			if err != nil {
				return err
			}
			if !s6SameResults(hf, mf) {
				return fmt.Errorf("%s: model %s query %q: exhaustive rankings diverge (heap %d vs mapped %d results)",
					stage, mn, q, len(hf), len(mf))
			}
			ht, err := hc.SearchTopK(q, s6K)
			if err != nil {
				return err
			}
			mt, err := mc.SearchTopK(q, s6K)
			if err != nil {
				return err
			}
			if !s6SameResults(ht, mt) {
				return fmt.Errorf("%s: model %s query %q: top-%d rankings diverge", stage, mn, q, s6K)
			}
		}
	}
	return nil
}

// s6Mutate applies one deterministic add/update/delete workload to a
// collection; applied to both residencies, the mapped overlay must
// keep matching the heap state exactly.
func s6Mutate(c *irs.Collection, corpus *workload.Corpus) error {
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("mut%04d", i)
		text := strings.Repeat("www nii overlay ", 4+i%7) + fmt.Sprintf("mutterm%02d", i%13)
		if err := c.AddDocument(name, text, nil); err != nil {
			return err
		}
	}
	for i := 10; i < len(corpus.Docs); i += 101 {
		d := &corpus.Docs[i]
		if err := c.UpdateDocument(d.Name, d.SGML+" www updated overlay", nil); err != nil {
			return err
		}
	}
	for i := 30; i < len(corpus.Docs); i += 97 {
		if err := c.DeleteDocument(corpus.Docs[i].Name); err != nil {
			return err
		}
	}
	return nil
}

// RunS6 executes EXP-S6. shards <= 0 selects GOMAXPROCS, floored at 4
// like the other serving-shaped experiments.
func RunS6(w io.Writer, shards int) (*S6Result, error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
		if shards < 4 {
			shards = 4
		}
	}
	res := &S6Result{Shards: shards}

	dir, err := os.MkdirTemp("", "exp-s6-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Build the corpus once, persisted as a v5 file. Deeper than
	// EXP-S5's: the cold-open gap being measured is exactly the
	// O(postings) decode the heap path performs per open, so postings
	// must dominate the file. The hot block (pinned to shard 0 as in
	// S4/S5) adds dense high-tf lists without growing the vocabulary.
	cfg := workload.DefaultConfig()
	cfg.Docs = 4000
	// Longer paragraphs raise postings (and positions) per document
	// while the section tables the mapped open parses stay the same
	// size — the gap under test is decode work, so keep decode work
	// dominant over table parse.
	cfg.WordsRange = [2]int{40, 80}
	corpus := workload.Generate(cfg)
	{
		build, err := irs.NewEngineAt(dir)
		if err != nil {
			return nil, err
		}
		coll, err := build.CreateCollectionShards("s6coll", nil, shards)
		if err != nil {
			return nil, err
		}
		for i := range corpus.Docs {
			if err := coll.AddDocument(corpus.Docs[i].Name, corpus.Docs[i].SGML, nil); err != nil {
				return nil, err
			}
		}
		var pad strings.Builder
		for i := 0; i < 250; i++ {
			fmt.Fprintf(&pad, "pad%02d ", i%50)
		}
		for i, added := 0, 0; added < s6HotDocs; i++ {
			name := fmt.Sprintf("hot%05d", i)
			if irs.ShardForExtID(name, shards) != 0 {
				continue
			}
			hotText := strings.Repeat("www nii codec video highway ", 16+added%17) + pad.String()
			if err := coll.AddDocument(name, hotText, nil); err != nil {
				return nil, err
			}
			added++
		}
		// Compact so the file is sealed blocks end to end — the form a
		// long-lived collection converges to and the one the mapped
		// path serves zero-copy.
		coll.Index().Compact()
		res.Docs = coll.DocCount()
		if err := build.Save(); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(dir, "s6coll.irsc")
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	res.FileBytes = st.Size()

	// Cold-open A/B over the same file: min of s6OpenRounds attempts
	// per residency (the OS page cache warms on the first round for
	// both, so the minima compare parse work, not disk).
	minOpen := func(mapped bool) (time.Duration, error) {
		best := time.Duration(-1)
		for r := 0; r < s6OpenRounds; r++ {
			start := time.Now()
			e, err := irs.NewEngineAt(dir, irs.Options{Mapped: mapped})
			el := time.Since(start)
			if err != nil {
				return 0, err
			}
			if err := e.Close(); err != nil {
				return 0, err
			}
			if best < 0 || el < best {
				best = el
			}
		}
		return best, nil
	}
	if res.HeapOpen, err = minOpen(false); err != nil {
		return nil, err
	}
	if res.MappedOpen, err = minOpen(true); err != nil {
		return nil, err
	}
	if res.MappedOpen > 0 {
		res.OpenSpeedup = float64(res.HeapOpen) / float64(res.MappedOpen)
	}

	// One engine per residency for everything below.
	heapEng, err := irs.NewEngineAt(dir)
	if err != nil {
		return nil, err
	}
	mapEng, err := irs.NewEngineAt(dir, irs.Options{Mapped: true})
	if err != nil {
		return nil, err
	}
	defer mapEng.Close()
	hc, err := heapEng.Collection("s6coll")
	if err != nil {
		return nil, err
	}
	mc, err := mapEng.Collection("s6coll")
	if err != nil {
		return nil, err
	}

	res.MappedBytes = mc.Index().MappedBytes()
	res.HeapBytes = mc.Index().HeapBytes()

	// Equality pass 1: the freshly loaded file, all models (this also
	// touches every queried page before the timing below).
	res.RankingsIdentical = true
	var gateErr error
	if err := s6CheckEqual(hc, mc, "fresh load"); err != nil {
		res.RankingsIdentical = false
		gateErr = err
	}

	// Steady-state A/B at k = 10 under the default inference net:
	// measured on the FRESH load — posting blocks still resident in the
	// mapping, so this times the zero-copy decode path against heap
	// blocks (after Compact both residencies would be heap and the A/B
	// would measure nothing). Interleaved rounds with alternating
	// order, min of each side.
	for _, c := range []*irs.Collection{hc, mc} {
		m, err := irs.ModelByName("inference-net")
		if err != nil {
			return nil, err
		}
		c.SetModel(m)
	}
	searchLoad := func(c *irs.Collection) (time.Duration, error) {
		return timeIt(func() error {
			for i := 0; i < s6SearchIters; i++ {
				for _, q := range s6Queries {
					if _, err := c.SearchTopK(q, s6K); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	res.HeapSearch, res.MappedSearch = time.Duration(-1), time.Duration(-1)
	for r := 0; r < s6SearchRounds; r++ {
		order := []*irs.Collection{hc, mc}
		if r%2 == 1 {
			order[0], order[1] = mc, hc
		}
		for _, c := range order {
			el, err := searchLoad(c)
			if err != nil {
				return nil, err
			}
			best := &res.HeapSearch
			if c == mc {
				best = &res.MappedSearch
			}
			if *best < 0 || el < *best {
				*best = el
			}
		}
	}
	if res.HeapSearch > 0 {
		res.SearchOverhead = float64(res.MappedSearch)/float64(res.HeapSearch) - 1
	}

	// Equality passes 2 and 3: identical mutations overlaid on both
	// residencies (the mapped collection layers tails and tombstones
	// over mapped blocks), then Compact folding the mapping out of the
	// live index.
	if gateErr == nil {
		if err := s6Mutate(hc, corpus); err != nil {
			return nil, err
		}
		if err := s6Mutate(mc, corpus); err != nil {
			return nil, err
		}
		if err := s6CheckEqual(hc, mc, "mutation overlay"); err != nil {
			res.RankingsIdentical = false
			gateErr = err
		}
	}
	if gateErr == nil {
		hc.Index().Compact()
		mc.Index().Compact()
		if err := s6CheckEqual(hc, mc, "post-compact"); err != nil {
			res.RankingsIdentical = false
			gateErr = err
		}
	}

	// Save/reopen fold: persisting the mapped collection (overlay plus
	// mapped base written into one fresh v5 file) and reopening it
	// mapped must reproduce the heap engine's live state exactly.
	if gateErr == nil {
		if err := mapEng.Save(); err != nil {
			return nil, err
		}
		reEng, err := irs.NewEngineAt(dir, irs.Options{Mapped: true})
		if err != nil {
			return nil, err
		}
		rc, err := reEng.Collection("s6coll")
		if err != nil {
			reEng.Close()
			return nil, err
		}
		if err := s6CheckEqual(hc, rc, "save/reopen fold"); err != nil {
			res.RankingsIdentical = false
			gateErr = err
		}
		if err := reEng.Close(); err != nil {
			return nil, err
		}
	}

	tab := &Table{
		Title: fmt.Sprintf("EXP-S6: mmap vs heap serving, %d docs, %d shards, %d-byte v5 file, k=%d",
			res.Docs, res.Shards, res.FileBytes, s6K),
		Header: []string{"residency", "cold open", fmt.Sprintf("search x%d", s6SearchIters*len(s6Queries)), "open speedup"},
	}
	tab.AddRow("heap (decode all blocks)",
		fms(float64(res.HeapOpen.Microseconds())/1000), fms(float64(res.HeapSearch.Microseconds())/1000), "1.00x")
	tab.AddRow("mapped (tables only, zero-copy blocks)",
		fms(float64(res.MappedOpen.Microseconds())/1000), fms(float64(res.MappedSearch.Microseconds())/1000),
		fmt.Sprintf("%.1fx", res.OpenSpeedup))
	tab.Fprint(w)
	fmt.Fprintf(w, "rankings bit-identical heap vs mapped (%d models x %d queries, incl. overlay/compact/reopen): %v\n",
		len(s6Models), len(s6Queries), res.RankingsIdentical)
	fmt.Fprintf(w, "mapped residency: %d bytes served from the mapping, %d on heap; steady-state overhead %+.1f%%\n\n",
		res.MappedBytes, res.HeapBytes, 100*res.SearchOverhead)

	if gateErr != nil {
		return res, fmt.Errorf("EXP-S6 ranking-equality gate tripped: %w", gateErr)
	}
	if res.MappedBytes <= 0 {
		return res, fmt.Errorf("EXP-S6 residency gate tripped: mapped collection reports no mapped bytes")
	}
	return res, nil
}
