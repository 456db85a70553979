package main

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	docirs "repro"
	"repro/internal/workload"
)

// verify opens the database files the server has just shut down over
// in this process and recomputes the sampled answers another way.
// Searches: exhaustive evaluation (every candidate scored, ranked
// here) instead of the server's pruned top-k path; ids must match in
// order and scores to 1e-9. Statements: the exhaustive scores of the
// IRS sub-query cut at the threshold, and the structural predicate
// decided from the corpus generator's own record of each document's
// YEAR and KIND — no VQL evaluator involved.
func (r *run) verify(o *oracle) error {
	if len(o.searches) == 0 && len(o.statements) == 0 {
		return nil
	}
	sys, err := docirs.Open(r.dbDir)
	if err != nil {
		return fmt.Errorf("oracle: open %s: %w", r.dbDir, err)
	}
	defer sys.Close()
	exhaustive := func(coll, q string) (map[string]float64, error) {
		col, err := sys.Collection(coll)
		if err != nil {
			return nil, err
		}
		col.SetBufferEnabled(false) // keep the reference from writing result-buffer objects
		scores, err := col.GetIRSResult(q)
		if err != nil {
			return nil, fmt.Errorf("oracle: %q on %s: %w", q, coll, err)
		}
		out := make(map[string]float64, len(scores))
		for oid, v := range scores {
			out[oid.String()] = v
		}
		return out, nil
	}
	for i, q := range o.searches {
		scores, err := exhaustive("collPara", q)
		if err != nil {
			return err
		}
		want := make([]searchHit, 0, len(scores))
		for id, v := range scores {
			want = append(want, searchHit{ID: id, Score: v})
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].Score != want[b].Score {
				return want[a].Score > want[b].Score
			}
			return want[a].ID < want[b].ID
		})
		if len(want) > searchLimit {
			want = want[:searchLimit]
		}
		r.attempted++
		if !sameHits(o.hits[i], want, 1e-9) {
			r.fail(1, "search %q: served top-%d differs from the exhaustive ranking", q, searchLimit)
		}
	}
	if len(o.statements) == 0 {
		return nil
	}
	// Which corpus document an object id belongs to.
	docOf := make(map[string]*workload.Document, len(r.paraOIDs)+len(r.docOIDs))
	base := 0
	for i := range r.corpus.Docs {
		d := &r.corpus.Docs[i]
		docOf[r.docOIDs[i]] = d
		for p := 0; p < d.ParaCount; p++ {
			docOf[r.paraOIDs[base+p]] = d
		}
		base += d.ParaCount
	}
	cache := map[string]map[string]float64{}
	for i, stmt := range o.statements {
		key := stmt.coll + "\x00" + stmt.irs
		scores, ok := cache[key]
		if !ok {
			if scores, err = exhaustive(stmt.coll, stmt.irs); err != nil {
				return err
			}
			cache[key] = scores
		}
		var want []string
		for id, v := range scores {
			d := docOf[id]
			if v <= stmt.theta || d == nil {
				continue
			}
			if stmt.attr == "YEAR" && strconv.Itoa(d.Year) != stmt.value || stmt.attr == "KIND" && d.Kind != stmt.value {
				continue
			}
			want = append(want, id)
		}
		sort.Strings(want)
		r.attempted++
		if !slices.Equal(o.rows[i], want) {
			r.fail(1, "query %q: served %d rows, exhaustive scores and corpus attributes give %d", stmt.text, len(o.rows[i]), len(want))
		}
	}
	return nil
}
