package docirs

// Benchmark harness: one benchmark per reproduced figure/table (see
// DESIGN.md's per-experiment index) plus micro-benchmarks for the
// substrate layers. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benches measure the comparison each figure/table
// makes (architectures, buffer on/off, strategies, placements,
// policies, paradigms); cmd/mmfbench prints the corresponding
// tables.
//
// Serving-layer throughput benchmarks (BenchmarkServerQueryParallel,
// BenchmarkServerSearchParallel) live in bench_server_test.go in the
// external test package: internal/server imports this package, so
// they cannot live here without an import cycle.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/archcmp"
	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/docmodel"
	"repro/internal/irs"
	"repro/internal/oodb"
	"repro/internal/sgml"
	"repro/internal/vql"
	"repro/internal/workload"
)

// benchSystem builds a loaded system over the default corpus.
type benchSystem struct {
	db       *oodb.DB
	store    *docmodel.Store
	engine   *irs.Engine
	coupling *core.Coupling
	dtd      *sgml.DTD
	corpus   *workload.Corpus
	docs     []oodb.OID
}

func newBenchSystem(b *testing.B, cfg workload.Config) *benchSystem {
	b.Helper()
	db, err := oodb.Open("", oodb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	store, err := docmodel.Open(db)
	if err != nil {
		b.Fatal(err)
	}
	engine := irs.NewEngine()
	coupling, err := core.New(store, engine)
	if err != nil {
		b.Fatal(err)
	}
	dtd, err := sgml.ParseDTD(workload.MMFDTD)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.LoadDTD(dtd); err != nil {
		b.Fatal(err)
	}
	corpus := workload.Generate(cfg)
	s := &benchSystem{db: db, store: store, engine: engine, coupling: coupling, dtd: dtd, corpus: corpus}
	for i := range corpus.Docs {
		tree, err := sgml.ParseDocument(dtd, corpus.Docs[i].SGML, sgml.ParseOptions{Strict: true})
		if err != nil {
			b.Fatal(err)
		}
		oid, err := store.InsertDocument(dtd, tree)
		if err != nil {
			b.Fatal(err)
		}
		s.docs = append(s.docs, oid)
	}
	return s
}

func (s *benchSystem) paraCollection(b *testing.B, opts core.Options) *core.Collection {
	b.Helper()
	col, err := s.coupling.CreateCollection("collPara", "ACCESS p FROM p IN PARA;", opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := col.IndexObjects(); err != nil {
		b.Fatal(err)
	}
	return col
}

// --- EXP-F1: Figure 1, coupling architectures ---------------------

func BenchmarkArchitectures(b *testing.B) {
	s := newBenchSystem(b, workload.DefaultConfig())
	coll := s.paraCollection(b, core.Options{})
	archs := []archcmp.Architecture{
		&archcmp.DBMSControl{Coupling: s.coupling, CollectionName: "collPara", Strategy: vql.StrategyAuto},
		&archcmp.ControlModule{DB: s.db, Store: s.store, IRSColl: coll.IRS()},
		&archcmp.IRSControl{DB: s.db, IRSColl: coll.IRS()},
	}
	q := archcmp.MixedQuery{Year: "1994", IRSQuery: "www", Threshold: 0.45}
	for _, a := range archs {
		b.Run(a.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := a.Run(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- EXP-F2: Figure 2, collection granularities coexist -----------

func BenchmarkOverlappingCollections(b *testing.B) {
	s := newBenchSystem(b, workload.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		para, err := s.coupling.CreateCollection(fmt.Sprintf("p%d", i), "ACCESS p FROM p IN PARA;", core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := para.IndexObjects(); err != nil {
			b.Fatal(err)
		}
		doc, err := s.coupling.CreateCollection(fmt.Sprintf("d%d", i), "ACCESS d FROM d IN MMFDOC;",
			core.Options{TextMode: docmodel.ModeAbstract})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := doc.IndexObjects(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.coupling.DropCollection(para.Name())
		s.coupling.DropCollection(doc.Name())
		b.StartTimer()
	}
}

// --- EXP-F3: Figure 3, persistent result buffer --------------------

func BenchmarkResultBuffer(b *testing.B) {
	for _, buffered := range []bool{true, false} {
		name := "buffered"
		if !buffered {
			name = "unbuffered"
		}
		b.Run(name, func(b *testing.B) {
			s := newBenchSystem(b, workload.DefaultConfig())
			coll := s.paraCollection(b, core.Options{})
			coll.SetBufferEnabled(buffered)
			if _, err := coll.GetIRSResult("www"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coll.GetIRSResult("www"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- EXP-F4: Figure 4, derivation schemes --------------------------

func BenchmarkDeriveSchemes(b *testing.B) {
	schemes := []derive.Scheme{
		derive.Max{}, derive.Avg{}, derive.LengthWeighted{}, derive.QueryAware{},
	}
	for _, scheme := range schemes {
		b.Run(scheme.Name(), func(b *testing.B) {
			s := newBenchSystem(b, workload.DefaultConfig())
			coll := s.paraCollection(b, core.Options{Deriver: scheme})
			doc := s.docs[0]
			q := "#and(www nii)"
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coll.FindIRSValue(q, doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- EXP-T1: granularity -------------------------------------------

func BenchmarkGranularityIndexing(b *testing.B) {
	grans := []struct {
		name string
		spec string
	}{
		{"document", "ACCESS d FROM d IN MMFDOC;"},
		{"section", "ACCESS s FROM s IN SECTION;"},
		{"paragraph", "ACCESS p FROM p IN PARA;"},
		{"leaf", "ACCESS t FROM t IN Text;"},
	}
	for _, g := range grans {
		b.Run(g.name, func(b *testing.B) {
			s := newBenchSystem(b, workload.DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col, err := s.coupling.CreateCollection(fmt.Sprintf("g%d", i), g.spec, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := col.IndexObjects(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				s.coupling.DropCollection(col.Name())
				b.StartTimer()
			}
		})
	}
}

// --- EXP-T2: mixed-query strategies --------------------------------

func BenchmarkMixedStrategies(b *testing.B) {
	src := `ACCESS d FROM d IN MMFDOC, p IN PARA WHERE d -> getAttributeValue('YEAR') = '1994' AND p -> getContaining('MMFDOC') == d AND p -> getIRSValue(collPara, 'www') > 0.45;`
	for _, strat := range []vql.Strategy{vql.StrategyIndependent, vql.StrategyIRSFirst} {
		b.Run(strat.String(), func(b *testing.B) {
			s := newBenchSystem(b, workload.DefaultConfig())
			s.paraCollection(b, core.Options{})
			ev := s.coupling.Evaluator()
			if _, err := ev.RunWithStrategy(src, strat); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.RunWithStrategy(src, strat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- EXP-T3: operator placement ------------------------------------

func BenchmarkOperatorPlacement(b *testing.B) {
	b.Run("irs-composite", func(b *testing.B) {
		s := newBenchSystem(b, workload.DefaultConfig())
		coll := s.paraCollection(b, core.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := coll.IRS().Search("#and(www nii)"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oodbms-and-warm", func(b *testing.B) {
		s := newBenchSystem(b, workload.DefaultConfig())
		coll := s.paraCollection(b, core.Options{})
		// Warm the operand buffers.
		if _, err := coll.GetIRSResult("www"); err != nil {
			b.Fatal(err)
		}
		if _, err := coll.GetIRSResult("nii"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := coll.IRSOperatorAND("www", "nii"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- EXP-T4: update propagation ------------------------------------

func BenchmarkUpdatePropagation(b *testing.B) {
	for _, policy := range []core.PropagationPolicy{
		core.PropagateImmediately, core.PropagateOnQuery, core.PropagateManually,
	} {
		b.Run(policy.String(), func(b *testing.B) {
			s := newBenchSystem(b, workload.DefaultConfig())
			coll := s.paraCollection(b, core.Options{Policy: policy})
			var leaves []oodb.OID
			for _, doc := range s.docs {
				var walk func(oid oodb.OID)
				walk = func(oid oodb.OID) {
					if class, _ := s.db.ClassOf(oid); class == docmodel.ClassText {
						leaves = append(leaves, oid)
						return
					}
					for _, k := range s.store.Children(oid) {
						walk(k)
					}
				}
				walk(doc)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Burst of 10 edits, then one query.
				for u := 0; u < 10; u++ {
					leaf := leaves[(i*10+u)%len(leaves)]
					if err := s.store.SetText(leaf, fmt.Sprintf("edit %d-%d www", i, u)); err != nil {
						b.Fatal(err)
					}
				}
				if policy == core.PropagateManually {
					if err := coll.Flush(); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := coll.GetIRSResult("www"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- EXP-S2: sync vs async ingest pipeline -------------------------

// BenchmarkIngestAsync measures the update-propagation pipeline under
// bursts of text edits: "sync" propagates every edit inside the
// mutator (PropagateImmediately), "async" logs and returns, letting
// the background flusher group-commit, with a Drain as the visibility
// barrier at the end of each burst. CI logs this benchmark alongside
// BenchmarkServerQueryParallel.
func BenchmarkIngestAsync(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts core.Options
	}{
		{"sync", core.Options{Policy: core.PropagateImmediately}},
		{"async", core.Options{Policy: core.PropagateAsync, AsyncCoalesceMin: time.Millisecond, AsyncCoalesceMax: time.Millisecond}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			s := newBenchSystem(b, workload.DefaultConfig())
			coll := s.paraCollection(b, mode.opts)
			var leaves []oodb.OID
			for _, doc := range s.docs {
				var walk func(oid oodb.OID)
				walk = func(oid oodb.OID) {
					if class, _ := s.db.ClassOf(oid); class == docmodel.ClassText {
						leaves = append(leaves, oid)
						return
					}
					for _, k := range s.store.Children(oid) {
						walk(k)
					}
				}
				walk(doc)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for u := 0; u < 32; u++ {
					leaf := leaves[(i*32+u)%len(leaves)]
					if err := s.store.SetText(leaf, fmt.Sprintf("edit %d-%d www", i, u)); err != nil {
						b.Fatal(err)
					}
				}
				if err := coll.Drain(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := coll.Stats().Snapshot()
			if st.FlushErrors != 0 {
				b.Fatalf("flush errors: %d", st.FlushErrors)
			}
			if st.GroupCommits > 0 {
				b.ReportMetric(float64(st.GroupedOps)/float64(st.GroupCommits), "ops/group")
			}
		})
	}
}

// --- EXP-T5: redundancy avoidance ----------------------------------

func BenchmarkRedundancy(b *testing.B) {
	b.Run("derive", func(b *testing.B) {
		s := newBenchSystem(b, workload.DefaultConfig())
		coll := s.paraCollection(b, core.Options{Deriver: derive.QueryAware{}})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			doc := s.docs[i%len(s.docs)]
			if _, err := coll.FindIRSValue("www", doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dual-index", func(b *testing.B) {
		s := newBenchSystem(b, workload.DefaultConfig())
		collDoc, err := s.coupling.CreateCollection("collDoc", "ACCESS d FROM d IN MMFDOC;", core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := collDoc.IndexObjects(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			doc := s.docs[i%len(s.docs)]
			if _, err := collDoc.FindIRSValue("www", doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- EXP-T6: result exchange ---------------------------------------

func BenchmarkResultExchange(b *testing.B) {
	b.Run("file", func(b *testing.B) {
		s := newBenchSystem(b, workload.DefaultConfig())
		coll := s.paraCollection(b, core.Options{})
		dir := b.TempDir()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			path := filepath.Join(dir, "r.txt")
			if err := coll.IRS().SearchToFile("www", path); err != nil {
				b.Fatal(err)
			}
			if _, err := irs.ParseResultFile(path); err != nil {
				b.Fatal(err)
			}
			os.Remove(path)
		}
	})
	b.Run("api", func(b *testing.B) {
		s := newBenchSystem(b, workload.DefaultConfig())
		coll := s.paraCollection(b, core.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := coll.IRS().Search("www"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- EXP-T7: retrieval paradigms ------------------------------------

func BenchmarkRetrievalModels(b *testing.B) {
	models := []irs.Model{irs.InferenceNet{}, irs.NewVectorSpace(), irs.Boolean{}}
	for _, model := range models {
		b.Run(model.Name(), func(b *testing.B) {
			s := newBenchSystem(b, workload.DefaultConfig())
			coll := s.paraCollection(b, core.Options{Model: model})
			coll.SetBufferEnabled(false) // measure the model, not the buffer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coll.GetIRSResult("#and(www nii)"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- substrate micro-benchmarks -------------------------------------

func BenchmarkSGMLParse(b *testing.B) {
	dtd, err := sgml.ParseDTD(workload.MMFDTD)
	if err != nil {
		b.Fatal(err)
	}
	corpus := workload.Generate(workload.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := corpus.Docs[i%len(corpus.Docs)]
		if _, err := sgml.ParseDocument(dtd, doc.SGML, sgml.ParseOptions{Strict: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIRSIndexing(b *testing.B) {
	corpus := workload.Generate(workload.DefaultConfig())
	texts := make([]string, 0, 256)
	for i := range corpus.Docs {
		texts = append(texts, corpus.Docs[i].SGML)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := irs.NewIndex(nil)
		b.StartTimer()
		for j, t := range texts {
			if _, err := ix.Add(fmt.Sprintf("d%d", j), t, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkIRSQueryEval(b *testing.B) {
	s := newBenchSystem(b, workload.DefaultConfig())
	coll := s.paraCollection(b, core.Options{})
	ix := coll.IRS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search("#and(www #or(nii sgml))"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVQLStructuralQuery(b *testing.B) {
	s := newBenchSystem(b, workload.DefaultConfig())
	ev := s.coupling.Evaluator()
	src := `ACCESS d FROM d IN MMFDOC WHERE d -> getAttributeValue('YEAR') = '1994';`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Run(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOODBCommit(b *testing.B) {
	db, err := oodb.Open("", oodb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.DefineClass("Node", "", nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		oid, err := tx.NewObject("Node", map[string]oodb.Value{"n": oodb.I(int64(i))})
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.SetAttr(oid, "peer", oodb.Ref(oid)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALDurableCommit(b *testing.B) {
	db, err := oodb.Open(b.TempDir(), oodb.Options{SyncWAL: false})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineClass("Node", "", nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.NewObject("Node", map[string]oodb.Value{"n": oodb.I(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetIRSValueThroughVQL(b *testing.B) {
	s := newBenchSystem(b, workload.DefaultConfig())
	s.paraCollection(b, core.Options{})
	ev := s.coupling.Evaluator()
	src := `ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'www') > 0.45;`
	if _, err := ev.Run(src); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Run(src); err != nil {
			b.Fatal(err)
		}
	}
}
