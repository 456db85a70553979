// Package docirs is the public face of the OODBMS-IRS coupling
// library — a from-scratch Go reproduction of Volz, Aberer and Böhm,
// "Applying a Flexible OODBMS-IRS-Coupling to Structured Document
// Handling" (ICDE 1996).
//
// A System bundles the three layers of the paper's architecture:
//
//   - an object-oriented database (the VODAK role) storing SGML
//     documents fragmented into trees of objects,
//   - an information-retrieval engine (the INQUERY role) holding an
//     arbitrary number of document collections, and
//   - the coupling, with the OODBMS as control component: document
//     collections are defined by VQL specification queries, objects
//     expose getText/getIRSValue/deriveIRSValue, IRS results are
//     buffered persistently, and updates propagate under a
//     configurable policy.
//
// Quick start:
//
//	sys, _ := docirs.Open("")                      // memory-only
//	dtd, _ := sys.LoadDTD(workload.MMFDTD)
//	sys.LoadDocument(dtd, sgmlText)
//	coll, _ := sys.CreateCollection("collPara",
//	    "ACCESS p FROM p IN PARA;", docirs.CollectionOptions{})
//	coll.IndexObjects()
//	rs, _ := sys.Query(`ACCESS p FROM p IN PARA
//	    WHERE p -> getIRSValue(collPara, 'WWW') > 0.6;`)
package docirs

import (
	"cmp"
	"errors"
	"fmt"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/docmodel"
	"repro/internal/irs"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/sgml"
	"repro/internal/vql"
	"repro/internal/wal"
)

// Re-exported types so applications program against one package.
type (
	// OID identifies a database object.
	OID = oodb.OID
	// Value is a database attribute value.
	Value = oodb.Value
	// Collection is the runtime face of a COLLECTION object.
	Collection = core.Collection
	// CollectionOptions configures CreateCollection.
	CollectionOptions = core.Options
	// PropagationPolicy bounds update-propagation time.
	PropagationPolicy = core.PropagationPolicy
	// ResultSet is the output of a VQL query.
	ResultSet = vql.ResultSet
	// Strategy selects the mixed-query evaluation strategy.
	Strategy = vql.Strategy
	// DTD is a parsed document type definition.
	DTD = sgml.DTD
	// SearchResult is one IRS retrieval result.
	SearchResult = irs.Result
	// FeedbackOptions tunes Rocchio-style query expansion
	// (Collection.IRS().ExpandQuery).
	FeedbackOptions = irs.FeedbackOptions
	// RecoveryReport summarizes one collection's WAL crash recovery
	// (System.RecoveryReports).
	RecoveryReport = irs.RecoveryReport
)

// Propagation policies (Section 4.6; PropagateAsync adds the
// background group-commit flusher).
const (
	PropagateOnQuery     = core.PropagateOnQuery
	PropagateImmediately = core.PropagateImmediately
	PropagateManually    = core.PropagateManually
	PropagateAsync       = core.PropagateAsync
)

// ParsePolicy maps a policy name ("on-query", "immediate", "manual",
// "async"; "" selects on-query) to its PropagationPolicy — the
// inverse of PropagationPolicy.String, shared by every flag and
// request parser.
func ParsePolicy(name string) (PropagationPolicy, error) {
	switch name {
	case "", "on-query":
		return PropagateOnQuery, nil
	case "immediate":
		return PropagateImmediately, nil
	case "manual":
		return PropagateManually, nil
	case "async":
		return PropagateAsync, nil
	}
	return PropagateOnQuery, fmt.Errorf("unknown policy %q (want on-query, immediate, manual or async)", name)
}

// Mixed-query evaluation strategies (Section 4.5.3).
const (
	StrategyAuto        = vql.StrategyAuto
	StrategyIndependent = vql.StrategyIndependent
	StrategyIRSFirst    = vql.StrategyIRSFirst
)

// Text representation modes for getText (Section 4.3).
const (
	ModeFullText = docmodel.ModeFullText
	ModeAbstract = docmodel.ModeAbstract
	ModeOwnText  = docmodel.ModeOwnText
)

// System is an assembled coupling instance.
type System struct {
	db       *oodb.DB
	store    *docmodel.Store
	engine   *irs.Engine
	coupling *core.Coupling
}

// OpenOptions configures Open/OpenWith beyond the storage directory.
type OpenOptions struct {
	// MappedIRS serves persisted IRS collections from read-only memory
	// mappings instead of loading posting data onto the heap (see
	// irs.Options.Mapped): open cost and heap footprint track the
	// dictionary/document tables, not the postings. Ignored in memory
	// mode. Rankings are identical either way.
	MappedIRS bool

	// NoWAL disables the per-collection IRS write-ahead log. Persistent
	// systems carry one by default: every propagation flush is logged
	// and fsynced (per WALFsync) before it commits, and open replays the
	// committed log tail onto the last snapshot — acknowledged updates
	// survive a crash. Ignored in memory mode.
	NoWAL bool

	// WALDir overrides where collection logs live (default: alongside
	// the IRS snapshots under dir/irs).
	WALDir string

	// WALFsync selects the log's fsync policy: "group" (default —
	// fsyncs ride the ingest coalescing window, one sync covers a
	// commit group), "always" (fsync every append) or "off" (leave
	// durability to the OS page cache).
	WALFsync string
}

// Open assembles a system. With dir == "" everything lives in
// memory; otherwise the database persists under dir (WAL + snapshot)
// and IRS collections under dir/irs.
func Open(dir string) (*System, error) {
	return OpenWith(dir, OpenOptions{})
}

// OpenWith assembles a system with explicit options.
func OpenWith(dir string, opts OpenOptions) (*System, error) {
	var (
		db     *oodb.DB
		engine *irs.Engine
		err    error
	)
	if dir == "" {
		db, err = oodb.Open("", oodb.Options{})
		if err != nil {
			return nil, err
		}
		engine = irs.NewEngine()
	} else {
		db, err = oodb.Open(dir, oodb.Options{SyncWAL: true})
		if err != nil {
			return nil, err
		}
		fsync, perr := wal.ParseSyncPolicy(opts.WALFsync)
		if perr != nil {
			db.Close()
			return nil, perr
		}
		engine, err = irs.NewEngineAt(filepath.Join(dir, "irs"), irs.Options{
			Mapped:   opts.MappedIRS,
			WAL:      !opts.NoWAL,
			WALDir:   opts.WALDir,
			WALFsync: fsync,
		})
		if err != nil {
			db.Close()
			return nil, err
		}
	}
	store, err := docmodel.Open(db)
	if err != nil {
		engine.Close()
		db.Close()
		return nil, err
	}
	coupling, err := core.New(store, engine)
	if err != nil {
		engine.Close()
		db.Close()
		return nil, err
	}
	return &System{db: db, store: store, engine: engine, coupling: coupling}, nil
}

// Close checkpoints and closes the system (persistent mode saves the
// IRS collections as well). Background flushers are stopped and
// pending update propagation is flushed first, so the saved IRS state
// is the fully propagated one. A final-flush failure does not abort
// the shutdown: the engine is still saved (committed index state is
// worth persisting) and the database still checkpointed and closed;
// all errors are joined into the result.
func (s *System) Close() error {
	var errs []error
	if err := s.coupling.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := s.engine.Save(); err != nil {
		errs = append(errs, err)
	}
	// After the save (which folds any mapped-plus-overlay state into
	// fresh v5 files), release the collections' file mappings. The
	// coupling is already closed, so no queries are in flight.
	if err := s.engine.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := s.db.Checkpoint(); err != nil && err != oodb.ErrClosed {
		errs = append(errs, err)
	}
	if err := s.db.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// DB exposes the object store.
func (s *System) DB() *oodb.DB { return s.db }

// Store exposes the document framework.
func (s *System) Store() *docmodel.Store { return s.store }

// Engine exposes the IRS engine.
func (s *System) Engine() *irs.Engine { return s.engine }

// Coupling exposes the coupling layer.
func (s *System) Coupling() *core.Coupling { return s.coupling }

// LoadDTD parses DTD text and defines one element-type class per
// declared element.
func (s *System) LoadDTD(src string) (*DTD, error) {
	d, err := sgml.ParseDTD(src)
	if err != nil {
		return nil, err
	}
	if err := s.store.LoadDTD(d); err != nil {
		return nil, err
	}
	return d, nil
}

// LoadDocument parses SGML text against the DTD (with omitted-tag
// inference) and stores it as a tree of database objects, returning
// the root object.
func (s *System) LoadDocument(d *DTD, sgmlText string) (OID, error) {
	tree, err := sgml.ParseDocument(d, sgmlText, sgml.ParseOptions{Strict: true})
	if err != nil {
		return 0, err
	}
	return s.store.InsertDocument(d, tree)
}

// DeleteDocument removes a document (or any element subtree).
func (s *System) DeleteDocument(root OID) error {
	return s.store.DeleteDocument(root)
}

// SetText replaces the raw text of a text-leaf object; the change
// propagates to affected collections under their policies.
func (s *System) SetText(leaf OID, text string) error {
	return s.store.SetText(leaf, text)
}

// CreateCollection creates a document collection whose members are
// selected by the VQL specification query.
func (s *System) CreateCollection(name, specQuery string, opts CollectionOptions) (*Collection, error) {
	return s.coupling.CreateCollection(name, specQuery, opts)
}

// Collection looks up a collection by name.
func (s *System) Collection(name string) (*Collection, error) {
	return s.coupling.Collection(name)
}

// DropCollection removes a collection.
func (s *System) DropCollection(name string) error {
	return s.coupling.DropCollection(name)
}

// Query runs a VQL statement (mixed structure/content queries
// included) with the automatic evaluation strategy. Collection names
// are pre-bound, so queries reference them directly (collPara in the
// paper's examples).
func (s *System) Query(src string) (*ResultSet, error) {
	return s.coupling.Evaluator().Run(src)
}

// QueryWithStrategy runs a VQL statement under an explicit
// evaluation strategy (Section 4.5.3 alternatives).
func (s *System) QueryWithStrategy(src string, strategy Strategy) (*ResultSet, error) {
	return s.coupling.Evaluator().RunWithStrategy(src, strategy)
}

// ExplainQuery returns the execution plan a statement would run
// under: binding domains, pushed-down predicates ordered by method
// cost, the chosen evaluation strategy and any IRS prefilters.
func (s *System) ExplainQuery(src string, strategy Strategy) (string, error) {
	q, err := vql.Parse(src)
	if err != nil {
		return "", err
	}
	plan, err := s.coupling.Evaluator().PlanQuery(q, strategy)
	if err != nil {
		return "", err
	}
	return plan.Describe(), nil
}

// Search runs a pure IRS query against a collection, returning
// object OIDs with retrieval values, best first.
func (s *System) Search(collection, irsQuery string) ([]SearchResult, error) {
	col, err := s.coupling.Collection(collection)
	if err != nil {
		return nil, err
	}
	scores, err := col.GetIRSResult(irsQuery)
	if err != nil {
		return nil, err
	}
	out := make([]SearchResult, 0, len(scores))
	for oid, v := range scores {
		out = append(out, SearchResult{ExtID: oid.String(), Score: v})
	}
	slices.SortFunc(out, func(a, b SearchResult) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.ExtID, b.ExtID)
	})
	return out, nil
}

// SearchTopK runs a pure IRS query against a collection, returning
// only the k best results (score descending, ties by OID string) —
// exactly the first k entries of Search's ranking, evaluated through
// the streaming top-k engine with MaxScore-style pruning instead of
// scoring and sorting the whole candidate set. k <= 0 behaves like
// Search.
func (s *System) SearchTopK(collection, irsQuery string, k int) ([]SearchResult, error) {
	return s.SearchTopKTraced(collection, irsQuery, k, nil)
}

// SearchTopKTraced is SearchTopK carrying a per-request trace context
// (nil-safe). The serving layer starts a trace per request and passes
// it down here; every layer below records its stage spans and
// annotations into it.
func (s *System) SearchTopKTraced(collection, irsQuery string, k int, tr *obs.Trace) ([]SearchResult, error) {
	col, err := s.coupling.Collection(collection)
	if err != nil {
		return nil, err
	}
	ranked, err := col.GetIRSResultTopKTraced(irsQuery, k, tr)
	if err != nil {
		return nil, err
	}
	out := make([]SearchResult, len(ranked))
	for i, rv := range ranked {
		out[i] = SearchResult{ExtID: rv.OID.String(), Score: rv.Value}
	}
	return out, nil
}

// Text returns an object's textual representation under a getText
// mode.
func (s *System) Text(oid OID, mode int) string { return s.store.Text(oid, mode) }

// Collections returns all collection names, sorted.
func (s *System) Collections() []string { return s.coupling.Collections() }

// RecoveryReports returns what this system's open recovered from
// collection write-ahead logs — empty when every log was clean (the
// common case after an orderly shutdown). Serving layers log these at
// startup so an operator sees that a crash happened and what replay
// restored.
func (s *System) RecoveryReports() []RecoveryReport {
	return s.engine.RecoveryReports()
}

// Epoch returns the coupling-wide change counter: it advances on
// every committed document mutation, collection lifecycle change,
// (re)indexing pass or propagation flush. Serving layers key
// whole-query caches on it — a result cached under one epoch value
// may be replayed while the epoch stands still, which keeps the
// deferred propagation policies (PropagateOnQuery, PropagateManually)
// correct behind such caches.
func (s *System) Epoch() uint64 { return s.coupling.Epoch() }

// ParseOID parses an OID string ("oid42"); the error-returning
// counterpart of MustOID for request-handling code.
func ParseOID(str string) (OID, error) { return oodb.ParseOID(str) }

// MustOID parses an OID string ("oid42"), panicking on malformed
// input; convenient in examples and tests.
func MustOID(str string) OID {
	oid, err := oodb.ParseOID(str)
	if err != nil {
		panic(fmt.Sprintf("docirs: %v", err))
	}
	return oid
}
