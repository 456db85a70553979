package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/docmodel"
	"repro/internal/oodb"
)

const (
	specAllParas  = `ACCESS p FROM p IN PARA;`
	specParas1994 = `ACCESS p FROM p IN PARA WHERE p -> getContaining('MMFDOC') -> getAttributeValue('YEAR') = '1994';`
)

// represented returns the collection's external document ids, sorted.
func represented(col *Collection) []string {
	ids := col.representedExtIDs()
	slices.Sort(ids)
	return ids
}

// extIDs renders OIDs the way the index names them, sorted.
func extIDs(oids []oodb.OID) []string {
	out := make([]string, len(oids))
	for i, oid := range oids {
		out[i] = oid.String()
	}
	slices.Sort(out)
	return out
}

// TestDeltaMatchesFullRerunProperty drives twin collections over one
// database through random interleavings of document inserts, paragraph
// edits, deletes, flushes and queries: one admits new members from the
// update log, the other is forced onto the pre-delta path (every
// creation logged, the specification query re-run over the extent on
// every create-bearing flush). Under every propagation policy they
// must hold the same represented set and doc count and rank every
// probe query bit-identically.
func TestDeltaMatchesFullRerunProperty(t *testing.T) {
	vocab := []string{"www", "nii", "gopher", "telnet", "mosaic", "archie", "veronica", "wais"}
	probes := []string{"www", "nii", "#and(www gopher)", "#or(telnet mosaic wais)"}
	policies := []PropagationPolicy{PropagateOnQuery, PropagateImmediately, PropagateManually, PropagateAsync}
	for _, spec := range []string{specAllParas, specParas1994} {
		for _, policy := range policies {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/where=%v/seed%d", policy, spec != specAllParas, seed), func(t *testing.T) {
					fx := newFixture(t, "")
					opts := Options{Policy: policy, AsyncCoalesceMin: 200 * time.Microsecond, AsyncCoalesceMax: 200 * time.Microsecond}
					delta, err := fx.coupling.CreateCollection("delta", spec, opts)
					if err != nil {
						t.Fatal(err)
					}
					full, err := fx.coupling.CreateCollection("full", spec, opts)
					if err != nil {
						t.Fatal(err)
					}
					if delta.deltaClass != "PARA" {
						t.Fatalf("deltaClass = %q, want PARA", delta.deltaClass)
					}
					full.deltaClass = "" // the twin keeps the full re-run
					t.Cleanup(func() { fx.coupling.Close() })

					rng := rand.New(rand.NewSource(seed))
					words := func() string {
						n := 2 + rng.Intn(5)
						s := ""
						for i := 0; i < n; i++ {
							s += vocab[rng.Intn(len(vocab))] + " "
						}
						return s
					}
					check := func(step int) {
						t.Helper()
						for _, col := range []*Collection{delta, full} {
							if err := col.Drain(); err != nil {
								t.Fatalf("step %d: drain %s: %v", step, col.Name(), err)
							}
						}
						if d, f := represented(delta), represented(full); !slices.Equal(d, f) {
							t.Fatalf("step %d: represented sets differ\n delta %v\n full  %v", step, d, f)
						}
						if delta.DocCount() != full.DocCount() {
							t.Fatalf("step %d: doc count %d vs %d", step, delta.DocCount(), full.DocCount())
						}
						for _, q := range probes {
							d, err := delta.GetIRSResultTopK(q, 0)
							if err != nil {
								t.Fatal(err)
							}
							f, err := full.GetIRSResultTopK(q, 0)
							if err != nil {
								t.Fatal(err)
							}
							if !slices.Equal(d, f) {
								t.Fatalf("step %d: ranking of %q differs\n delta %v\n full  %v", step, q, d, f)
							}
						}
					}
					for step := 0; step < 60; step++ {
						switch r := rng.Intn(10); {
						case r < 4 || len(fx.docs) == 0:
							paras := make([]string, 1+rng.Intn(3))
							for i := range paras {
								paras[i] = words()
							}
							fx.addDoc([]string{"1994", "1995"}[rng.Intn(2)], "doc", paras...)
						case r < 6:
							paras := fx.paras(fx.docs[rng.Intn(len(fx.docs))])
							leaf := fx.store.Children(paras[rng.Intn(len(paras))])[0]
							if err := fx.store.SetText(leaf, words()); err != nil {
								t.Fatal(err)
							}
						case r < 7:
							i := rng.Intn(len(fx.docs))
							if err := fx.store.DeleteDocument(fx.docs[i]); err != nil {
								t.Fatal(err)
							}
							fx.docs = slices.Delete(fx.docs, i, i+1)
						case r < 8:
							// Delete one paragraph of a document that keeps another.
							if paras := fx.paras(fx.docs[rng.Intn(len(fx.docs))]); len(paras) > 1 {
								if err := fx.store.DeleteDocument(paras[rng.Intn(len(paras))]); err != nil {
									t.Fatal(err)
								}
							}
						case r < 9:
							for _, col := range []*Collection{delta, full} {
								if err := col.Flush(); err != nil {
									t.Fatal(err)
								}
							}
						default:
							check(step)
						}
					}
					check(60)
					ds, fs := delta.Stats().Snapshot(), full.Stats().Snapshot()
					if ds.SpecReruns > 1 {
						t.Errorf("delta collection re-ran its specification query %d times, want at most once", ds.SpecReruns)
					}
					if ds.DeltaAdmitted == 0 {
						t.Error("delta collection admitted nothing from the update log")
					}
					if fs.SpecReruns < 2 || fs.DeltaAdmitted != 0 {
						t.Errorf("twin left the full re-run path: %d re-runs, %d delta-admitted", fs.SpecReruns, fs.DeltaAdmitted)
					}
				})
			}
		}
	}
}

// TestSpecificationClassification: which specification-query shapes
// admit from the update log and which keep the full re-run, and that
// either way the members after two insert+flush rounds are exactly
// what the specification query selects — subclass instances included.
func TestSpecificationClassification(t *testing.T) {
	cases := []struct {
		name, spec, deltaClass string
	}{
		{"no-where", specAllParas, "PARA"},
		{"where-on-variable", `ACCESS p FROM p IN PARA WHERE p -> length() > 2;`, "PARA"},
		{"where-with-path", specParas1994, "PARA"},
		{"superclass", `ACCESS e FROM e IN Element;`, docmodel.ClassElement},
		{"join", `ACCESS p FROM p IN PARA, d IN MMFDOC WHERE p -> getContaining('MMFDOC') == d AND d -> getAttributeValue('YEAR') = '1994';`, ""},
		{"access-expression", `ACCESS p -> getContaining('MMFDOC') FROM p IN PARA;`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture(t, "")
			fx.addDoc("1994", "before", "a paragraph that predates the collection", "tiny")
			col, err := fx.coupling.CreateCollection("c", tc.spec, Options{Policy: PropagateManually})
			if err != nil {
				t.Fatal(err)
			}
			if col.deltaClass != tc.deltaClass {
				t.Fatalf("deltaClass = %q, want %q", col.deltaClass, tc.deltaClass)
			}
			fx.addDoc("1994", "first", "one two three four", "no")
			if err := col.Flush(); err != nil {
				t.Fatal(err)
			}
			fx.addDoc("1995", "second", "five six seven eight")
			fx.addDoc("1994", "third", "nine ten eleven twelve", "so")
			if err := col.Flush(); err != nil {
				t.Fatal(err)
			}
			want, err := col.specResult()
			if err != nil {
				t.Fatal(err)
			}
			if got := represented(col); !slices.Equal(got, extIDs(want)) {
				t.Errorf("members = %v, specification query selects %v", got, extIDs(want))
			}
			s := col.Stats().Snapshot()
			if tc.deltaClass != "" {
				// The first flush since open reconciles with one full run.
				if s.SpecReruns != 1 || s.DeltaAdmitted == 0 {
					t.Errorf("delta-able: %d re-runs (want 1), %d delta-admitted (want > 0)", s.SpecReruns, s.DeltaAdmitted)
				}
			} else if s.SpecReruns != 2 || s.DeltaAdmitted != 0 {
				t.Errorf("fallback: %d re-runs (want 2), %d delta-admitted (want 0)", s.SpecReruns, s.DeltaAdmitted)
			}
		})
	}
}

// TestDeltaCostIndependentOfExtent counts instead of timing: the same
// inserts into a 200-paragraph and a 2000-paragraph store log, admit
// and apply the same number of objects and never re-run the
// specification query — a new object costs its own size.
func TestDeltaCostIndependentOfExtent(t *testing.T) {
	const inserts, parasPerDoc = 5, 4
	run := func(storeDocs int) StatsSnapshot {
		fx := newFixture(t, "")
		paras := make([]string, 10)
		for i := range paras {
			paras[i] = fmt.Sprintf("filler paragraph number %d", i)
		}
		for i := 0; i < storeDocs; i++ {
			fx.addDoc("1994", "filler", paras...)
		}
		col := fx.paraColl(Options{Policy: PropagateManually})
		if col.DocCount() != storeDocs*10 {
			t.Fatalf("store holds %d paragraphs, want %d", col.DocCount(), storeDocs*10)
		}
		fx.addDoc("1994", "first", "the first flush after open")
		if err := col.Flush(); err != nil {
			t.Fatal(err)
		}
		before := col.Stats().Snapshot()
		for i := 0; i < inserts; i++ {
			fx.addDoc("1995", "new", paras[:parasPerDoc]...)
			if err := col.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		after := col.Stats().Snapshot()
		if col.DocCount() != storeDocs*10+1+inserts*parasPerDoc {
			t.Errorf("doc count = %d", col.DocCount())
		}
		return StatsSnapshot{
			OpsLogged:     after.OpsLogged - before.OpsLogged,
			OpsApplied:    after.OpsApplied - before.OpsApplied,
			Indexed:       after.Indexed - before.Indexed,
			Flushes:       after.Flushes - before.Flushes,
			SpecReruns:    after.SpecReruns - before.SpecReruns,
			DeltaAdmitted: after.DeltaAdmitted - before.DeltaAdmitted,
		}
	}
	small, large := run(20), run(200)
	if small != large {
		t.Errorf("work depends on the extent:\n  200 paragraphs: %+v\n 2000 paragraphs: %+v", small, large)
	}
	// Each new paragraph logs its create and the two edits of the same
	// insert the create absorbs (its text leaf, its child list).
	want := StatsSnapshot{
		OpsLogged: 3 * inserts * parasPerDoc, OpsApplied: inserts * parasPerDoc, Indexed: inserts * parasPerDoc,
		Flushes: inserts, SpecReruns: 0, DeltaAdmitted: inserts * parasPerDoc,
	}
	if large != want {
		t.Errorf("counters = %+v, want %+v", large, want)
	}
}

// TestFirstFlushAfterRestoreReconciles: the update log is volatile, so
// a member committed to the database but not flushed before the
// process died is in no log after reopen. The first create-bearing
// flush of the restored collection re-runs the specification query
// once and re-admits it; later flushes are back on the delta.
func TestFirstFlushAfterRestoreReconciles(t *testing.T) {
	dir := t.TempDir()
	fx := newFixture(t, dir)
	fx.addDoc("1994", "indexed", "a paragraph the index holds")
	fx.paraColl(Options{Policy: PropagateManually})
	orphan := fx.paras(fx.addDoc("1994", "orphan", "committed but never flushed"))[0]
	if err := fx.store.DB().Close(); err != nil { // "crash": no flush
		t.Fatal(err)
	}

	db, err := oodb.Open(dir, oodb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	store, err := docmodel.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	// The engine stands in for the persisted index: it survives with
	// what was flushed.
	coupling, err := New(store, fx.engine)
	if err != nil {
		t.Fatal(err)
	}
	fx2 := &fixture{t: t, store: store, engine: fx.engine, coupling: coupling, dtd: fx.dtd}
	col, err := coupling.Collection("collPara")
	if err != nil {
		t.Fatal(err)
	}
	if col.Represented(orphan) || col.PendingOps() != 0 {
		t.Fatalf("precondition: orphan represented=%v, pending=%d", col.Represented(orphan), col.PendingOps())
	}
	fx2.addDoc("1995", "after", "inserted after the restart")
	if err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	if !col.Represented(orphan) {
		t.Error("first flush after restore did not re-admit the unflushed member")
	}
	if s := col.Stats().Snapshot(); s.SpecReruns != 1 || col.DocCount() != 3 {
		t.Errorf("after first flush: %d re-runs (want 1), %d docs (want 3)", s.SpecReruns, col.DocCount())
	}
	fx2.addDoc("1995", "later", "one more", "and another")
	if err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := col.Stats().Snapshot(); s.SpecReruns != 1 || s.DeltaAdmitted != 2 || col.DocCount() != 5 {
		t.Errorf("after second flush: %d re-runs (want 1), %d delta-admitted (want 2), %d docs (want 5)",
			s.SpecReruns, s.DeltaAdmitted, col.DocCount())
	}
}

// TestDeleteDuringFlushLeavesNoGhost: a delete committed while a flush
// is in flight — the object's create already drained, its batch not
// yet committed — must not leave the index holding an object the
// database dropped. The text hook deletes the new document while its
// second paragraph is being staged: that paragraph is skipped (it no
// longer exists), the first was staged a moment earlier and commits,
// and its logged delete removes it on the next flush.
func TestDeleteDuringFlushLeavesNoGhost(t *testing.T) {
	fx := newFixture(t, "")
	fx.addDoc("1994", "resident", "a paragraph that stays")
	col := fx.paraColl(Options{Policy: PropagateManually})
	doc := fx.addDoc("1995", "ghost", "spectre one", "spectre two")
	victims := fx.paras(doc)
	col.SetTextFunc(func(oid oodb.OID, mode int) string {
		text := fx.store.Text(oid, mode)
		if oid == victims[1] {
			if err := fx.store.DeleteDocument(doc); err != nil {
				t.Error(err)
			}
		}
		return text
	})
	for i := 0; i < 2; i++ {
		if err := col.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range victims {
		if col.Represented(v) {
			t.Errorf("deleted paragraph %s still represented after two flushes", v)
		}
	}
	if hits, _ := col.IRS().Search("spectre"); len(hits) != 0 {
		t.Errorf("index still answers for the deleted document: %v", hits)
	}
	if col.DocCount() != 1 || col.PendingOps() != 0 {
		t.Errorf("doc count = %d (want 1), pending = %d (want 0)", col.DocCount(), col.PendingOps())
	}
}

// TestUpdateLogMergeRules: what a drain hands the flush for each
// per-object operation sequence, creations included.
func TestUpdateLogMergeRules(t *testing.T) {
	const c, m, d = pendingCreate, pendingModify, pendingDelete
	cases := []struct {
		seq  []pendingKind
		want pendingKind
	}{
		{[]pendingKind{c}, c},
		{[]pendingKind{c, m, m}, c},
		{[]pendingKind{c, d}, d}, // a racing full re-run may have admitted it
		{[]pendingKind{m, m}, m},
		{[]pendingKind{m, d}, d},
		{[]pendingKind{m, c}, c}, // hooks of two transactions out of order
		{[]pendingKind{d, m}, d},
	}
	var stats Stats
	log := newUpdateLog()
	for i, tc := range cases {
		for _, k := range tc.seq {
			log.add(oodb.OID(i+1), k, &stats)
		}
	}
	ops, seq := log.drain()
	if len(ops) != len(cases) || seq != 14 {
		t.Fatalf("drained %d ops through seq %d, want %d through 14", len(ops), seq, len(cases))
	}
	for i, tc := range cases {
		if ops[i].oid != oodb.OID(i+1) || ops[i].kind != tc.want {
			t.Errorf("%v -> {%v %v}, want kind %v in first-logged order", tc.seq, ops[i].oid, ops[i].kind, tc.want)
		}
	}
	if log.pending() || stats.OpsLogged.Load() != 14 || stats.OpsCancelled.Load() != 7 {
		t.Errorf("after drain: pending=%v logged=%d cancelled=%d, want false/14/7",
			log.pending(), stats.OpsLogged.Load(), stats.OpsCancelled.Load())
	}
}
