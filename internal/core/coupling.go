// Package core implements the paper's primary contribution: the
// loose OODBMS-IRS coupling with the OODBMS as control component
// (Section 3, architecture (3) of Figure 1), realized through the
// two coupling classes of Section 4.2:
//
//   - COLLECTION — encapsulates exactly one IRS collection;
//     indexObjects(specQuery, textMode), getIRSResult(query) with a
//     persistent result buffer, findIRSValue(query, obj), and the
//     update-propagation machinery of Section 4.6.
//   - IRSObject — the supertype of every document-element class;
//     getText(mode), getIRSValue(coll, query) and
//     deriveIRSValue(coll, query) as database methods, so each
//     object "knows its IRS value, in accordance with the object
//     paradigm".
//
// The coupling-specific part of the database schema (Figure 2) is
// created by New: class COLLECTION holding one object per
// collection, and class IRSBufferEntry persisting the IRS result
// buffer ("the results of IRS calls are buffered persistently",
// Section 4.2).
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/derive"
	"repro/internal/docmodel"
	"repro/internal/irs"
	"repro/internal/oodb"
	"repro/internal/vql"
)

// Bookkeeping class names (the coupling-specific schema part).
const (
	ClassCollection  = "COLLECTION"
	ClassBufferEntry = "IRSBufferEntry"
)

// Errors.
var (
	ErrNoSuchCollection = errors.New("core: no such collection")
	ErrDuplicate        = errors.New("core: collection already exists")
	ErrBadSpecQuery     = errors.New("core: specification query must return objects")
)

// Coupling wires one database to one IRS engine.
type Coupling struct {
	db     *oodb.DB
	store  *docmodel.Store
	engine *irs.Engine
	ev     *vql.Evaluator

	// epoch advances on every committed document mutation and on
	// collection lifecycle changes; serving layers key whole-query
	// caches on it (see Collection.Epoch for the per-collection
	// counter).
	epoch atomic.Uint64

	mu          sync.RWMutex
	byName      map[string]*Collection
	byOID       map[oodb.OID]*Collection
	defaultColl *Collection
}

// Epoch returns a counter that advances whenever the outcome of a
// VQL query could change: any committed non-framework database
// mutation, collection creation/drop, (re)indexing, propagation
// flushes and configuration exchanges all bump it, and every
// collection's own epoch (which folds in direct IRS index mutations
// and model exchanges) is summed in. Results cached under one epoch
// value may be replayed verbatim while the epoch stands still.
func (c *Coupling) Epoch() uint64 {
	sum := c.epoch.Load()
	c.mu.RLock()
	cols := make([]*Collection, 0, len(c.byName))
	for _, col := range c.byName {
		cols = append(cols, col)
	}
	c.mu.RUnlock()
	for _, col := range cols {
		sum += col.Epoch()
	}
	return sum
}

// New attaches a coupling to the document store and IRS engine. It
// defines the coupling-specific schema, registers the IRSObject
// methods, restores persisted collections and buffers, and hooks
// database updates for propagation.
func New(store *docmodel.Store, engine *irs.Engine) (*Coupling, error) {
	db := store.DB()
	c := &Coupling{
		db:     db,
		store:  store,
		engine: engine,
		ev:     vql.NewEvaluator(db, nil),
		byName: make(map[string]*Collection),
		byOID:  make(map[oodb.OID]*Collection),
	}
	for _, cls := range []struct {
		name  string
		attrs map[string]oodb.Kind
	}{
		{ClassCollection, map[string]oodb.Kind{
			"name": oodb.KindString, "specQuery": oodb.KindString,
			"textMode": oodb.KindInt, "model": oodb.KindString,
			"deriver": oodb.KindString, "policy": oodb.KindInt,
		}},
		{ClassBufferEntry, map[string]oodb.Kind{
			"collection": oodb.KindOID, "query": oodb.KindString,
			"oids": oodb.KindList, "values": oodb.KindList,
		}},
	} {
		if _, ok := db.Class(cls.name); ok {
			continue
		}
		if err := db.DefineClass(cls.name, "", cls.attrs); err != nil {
			return nil, err
		}
	}
	c.registerMethods()
	if err := c.restore(); err != nil {
		return nil, err
	}
	db.AddUpdateHook(c.onUpdate)
	return c, nil
}

// Close shuts the coupling's background machinery down in an orderly
// way: every collection's flusher is stopped, a final synchronous
// flush propagates whatever the flushers had not reached yet (so a
// subsequent engine save persists the fully propagated state), and
// in-flight background compactions are waited out. Flush failures
// are joined into the returned error and counted in the collections'
// stats.
func (c *Coupling) Close() error {
	c.mu.RLock()
	cols := make([]*Collection, 0, len(c.byName))
	for _, col := range c.byName {
		cols = append(cols, col)
	}
	c.mu.RUnlock()
	var errs []error
	for _, col := range cols {
		col.stopFlusher()
		if err := col.Flush(); err != nil {
			col.noteFlushError(err)
			errs = append(errs, fmt.Errorf("core: close flush of %q: %w", col.name, err))
		}
		col.irsColl.Index().WaitCompaction()
	}
	return errors.Join(errs...)
}

// DB returns the coupled database.
func (c *Coupling) DB() *oodb.DB { return c.db }

// Store returns the document framework.
func (c *Coupling) Store() *docmodel.Store { return c.store }

// Engine returns the coupled IRS engine.
func (c *Coupling) Engine() *irs.Engine { return c.engine }

// Evaluator returns a VQL evaluator with the coupling registered as
// IRS predicate provider and every collection name bound in the
// environment (so the paper's queries can say collPara directly).
func (c *Coupling) Evaluator() *vql.Evaluator {
	ev := vql.NewEvaluator(c.db, nil)
	ev.SetIRSProvider(c)
	c.mu.RLock()
	defer c.mu.RUnlock()
	for name, col := range c.byName {
		ev.SetEnv(name, oodb.Ref(col.oid))
	}
	return ev
}

// IRSResult implements vql.IRSPredicateProvider: the set-at-a-time
// entry point for the IRS-first evaluation strategy.
func (c *Coupling) IRSResult(coll oodb.Value, irsQuery string) (map[oodb.OID]float64, error) {
	col, err := c.collectionByValue(coll)
	if err != nil {
		return nil, err
	}
	return col.GetIRSResult(irsQuery)
}

// IRSResultTopK is the top-k companion of IRSResult: it returns only
// the k best (object, value) pairs in rank order, evaluated through
// the streaming top-k engine (and, like IRSResult, behind the
// PropagateOnQuery flush and the persistent result buffer). Serving
// layers use it to push a client's limit all the way into the IRS.
func (c *Coupling) IRSResultTopK(coll oodb.Value, irsQuery string, k int) ([]RankedValue, error) {
	col, err := c.collectionByValue(coll)
	if err != nil {
		return nil, err
	}
	return col.GetIRSResultTopK(irsQuery, k)
}

func (c *Coupling) collectionByValue(v oodb.Value) (*Collection, error) {
	if v.Kind != oodb.KindOID {
		return nil, fmt.Errorf("%w: %s is not a collection reference", ErrNoSuchCollection, v)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	col, ok := c.byOID[v.Ref]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchCollection, v.Ref)
	}
	return col, nil
}

// Collection returns a collection by name.
func (c *Coupling) Collection(name string) (*Collection, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	col, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchCollection, name)
	}
	return col, nil
}

// Collections returns all collection names, sorted.
func (c *Coupling) Collections() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.byName))
	for n := range c.byName {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// SetDefaultCollection selects the collection used when getIRSValue
// is invoked without a collection argument (choice (1)/(3) of
// Section 4.5.1; passing it as an argument is choice (2)).
func (c *Coupling) SetDefaultCollection(col *Collection) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.defaultColl = col
}

// Options configures CreateCollection.
type Options struct {
	// TextMode selects the getText representation mode
	// (docmodel.ModeFullText, ModeAbstract, ModeOwnText).
	TextMode int
	// Model is the retrieval model of the IRS collection; nil
	// selects the INQUERY-style inference net.
	Model irs.Model
	// Deriver computes values for unrepresented objects; nil selects
	// derive.Max (the authors' tested scheme).
	Deriver derive.Scheme
	// Policy bounds update-propagation time (Section 4.6); the zero
	// value is PropagateOnQuery. PropagateAsync adds a background
	// flusher that group-commits logged updates (see the Async*
	// options below).
	Policy PropagationPolicy
	// AsyncMaxPending bounds the pending-update queue under
	// PropagateAsync: once the log holds this many distinct objects,
	// Collection.AsyncBacklogFull reports true and serving layers
	// shed ingest load (503) until the flusher catches up. 0 selects
	// the default (4096); negative means unbounded.
	AsyncMaxPending int
	// AsyncCoalesceMin/Max bound the background flusher's
	// group-commit window: after the first pending update it waits
	// out the window for more before flushing them as one batch. The
	// flusher moves the window inside [AsyncCoalesceMin,
	// AsyncCoalesceMax] with observed arrival rate and queue depth,
	// short when idle for latency, wide under burst for larger group
	// commits. Equal bounds fix the window. 0 selects the defaults
	// (250µs / 8ms).
	AsyncCoalesceMin time.Duration
	AsyncCoalesceMax time.Duration
	// AutoCompactRatio enables tombstone-ratio-triggered background
	// compaction of the collection's index: when more than this
	// fraction of documents are tombstones, the index rebuilds itself
	// off the write path (irs.Index.SetAutoCompact). 0 disables. Not
	// persisted; reconfigure after restarts.
	AutoCompactRatio float64
	// AutoCompactMin is the tombstone floor below which
	// AutoCompactRatio never triggers (0: default 64).
	AutoCompactMin int
	// Shards is the number of hash partitions of the IRS collection's
	// inverted index; queries score shards in parallel and single-
	// document updates contend only on their own shard. 0 selects the
	// engine's default. Rankings are independent of the shard count.
	Shards int
	// TextFunc overrides the textual representation used for
	// indexing. The paper makes getText the application
	// programmer's responsibility (Section 4.3.2); Section 5 builds
	// image retrieval (captions) and hypertext retrieval
	// (implies-link fragments) on exactly this hook. Nil selects the
	// SGML default: the text of the subtree's leaves under TextMode.
	// TextFunc is not persisted; re-register it after restarts with
	// SetTextFunc.
	TextFunc func(oid oodb.OID, mode int) string
}

// CreateCollection creates a COLLECTION object encapsulating a new
// IRS collection. specQuery is the VQL specification query that
// identifies the IRSObject instances to represent (Section 4.3.2:
// "the granularity is layed down by identifying the IRSObject
// instances ... through a 'specification query'").
func (c *Coupling) CreateCollection(name, specQuery string, opts Options) (*Collection, error) {
	spec, err := vql.Parse(specQuery)
	if err != nil {
		return nil, fmt.Errorf("core: bad specification query: %w", err)
	}
	model := opts.Model
	if model == nil {
		model = irs.InferenceNet{}
	}
	deriver := opts.Deriver
	if deriver == nil {
		deriver = derive.Max{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.byName[name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	irsColl, err := c.engine.CreateCollectionShards(name, model, opts.Shards)
	if err != nil {
		return nil, err
	}
	oid, err := c.db.NewObject(ClassCollection, map[string]oodb.Value{
		"name":      oodb.S(name),
		"specQuery": oodb.S(specQuery),
		"textMode":  oodb.I(int64(opts.TextMode)),
		"model":     oodb.S(model.Name()),
		"deriver":   oodb.S(deriver.Name()),
		"policy":    oodb.I(int64(opts.Policy)),
	})
	if err != nil {
		c.engine.DropCollection(name)
		return nil, err
	}
	col := newCollection(c, oid, name, specQuery, spec, opts.TextMode, irsColl, deriver, opts.Policy)
	col.textFn = opts.TextFunc
	col.setAsyncTuning(opts.AsyncMaxPending, opts.AsyncCoalesceMin, opts.AsyncCoalesceMax)
	if opts.AutoCompactRatio > 0 {
		irsColl.SetAutoCompact(opts.AutoCompactRatio, opts.AutoCompactMin)
	}
	if opts.Policy == PropagateAsync {
		col.startFlusher()
	}
	c.byName[name] = col
	c.byOID[oid] = col
	if c.defaultColl == nil {
		c.defaultColl = col
	}
	c.epoch.Add(1)
	return col, nil
}

// DropCollection removes the collection, its IRS collection and its
// persisted buffer entries.
func (c *Coupling) DropCollection(name string) error {
	c.mu.Lock()
	col, ok := c.byName[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSuchCollection, name)
	}
	delete(c.byName, name)
	delete(c.byOID, col.oid)
	if c.defaultColl == col {
		c.defaultColl = nil
	}
	c.mu.Unlock()
	col.stopFlusher()
	// Fold the dropped collection's final epoch into the base counter
	// so the summed Epoch() stays monotonic when its term disappears.
	c.epoch.Add(col.Epoch() + 1)
	col.buffer.invalidate()
	if err := c.engine.DropCollection(name); err != nil && !errors.Is(err, irs.ErrNoSuchCollection) {
		return err
	}
	return c.db.DeleteObject(col.oid)
}

// restore rebuilds collections (and their buffers) from the
// database after a restart.
func (c *Coupling) restore() error {
	for _, oid := range c.db.Extent(ClassCollection, false) {
		attrs, ok := c.db.Attrs(oid)
		if !ok {
			continue
		}
		name := attrs["name"].Str
		modelName := attrs["model"].Str
		spec, err := vql.Parse(attrs["specQuery"].Str)
		if err != nil {
			return fmt.Errorf("core: restore collection %q: bad specification query: %w", name, err)
		}
		deriver, ok := derive.ByName(attrs["deriver"].Str)
		if !ok {
			deriver = derive.Max{}
		}
		irsColl, err := c.engine.Collection(name)
		if errors.Is(err, irs.ErrNoSuchCollection) {
			// IRS side not persisted (or lost): recreate empty; the
			// application re-runs IndexObjects or Reindex.
			model, merr := irs.ModelByName(modelName)
			if merr != nil {
				model = irs.InferenceNet{}
			}
			if irsColl, err = c.engine.CreateCollection(name, model); err != nil {
				return err
			}
		} else if err != nil {
			return err
		}
		col := newCollection(c, oid, name, attrs["specQuery"].Str, spec,
			int(attrs["textMode"].Int), irsColl, deriver,
			PropagationPolicy(attrs["policy"].Int))
		// Resume the ingest sequence behind the WAL's recovered
		// watermark so post-restart operations log after the replayed
		// ones.
		if w := irsColl.WALWatermark(); w > 0 {
			col.log.seed(w)
			col.applied.Store(w)
		}
		if col.policy == PropagateAsync {
			col.startFlusher()
		}
		c.byName[name] = col
		c.byOID[oid] = col
		if c.defaultColl == nil {
			c.defaultColl = col
		}
	}
	// Reload persisted buffer entries.
	for _, oid := range c.db.Extent(ClassBufferEntry, false) {
		attrs, ok := c.db.Attrs(oid)
		if !ok {
			continue
		}
		col, ok := c.byOID[attrs["collection"].Ref]
		if !ok {
			// Orphaned entry; drop it.
			c.db.DeleteObject(oid)
			continue
		}
		scores := make(map[oodb.OID]float64)
		oids := attrs["oids"].List
		values := attrs["values"].List
		for i := range oids {
			if i < len(values) {
				scores[oids[i].Ref] = values[i].Float
			}
		}
		col.buffer.restore(attrs["query"].Str, scores, oid)
	}
	return nil
}

// frameworkClasses are classes whose mutations must not feed update
// propagation (they ARE the propagation bookkeeping).
var frameworkClasses = map[string]bool{
	ClassCollection:  true,
	ClassBufferEntry: true,
}

// onUpdate is the database update hook: it routes committed
// mutations of document objects into every collection's update log
// (Section 4.6: "One out of three update methods ... has to be
// invoked whenever a relevant update occurs").
func (c *Coupling) onUpdate(u oodb.Update) {
	if frameworkClasses[u.Class] {
		return
	}
	// Every committed document mutation invalidates whole-query
	// caches, even mutations irrelevant to text representations
	// (structural VQL predicates may depend on them).
	c.epoch.Add(1)
	if u.Kind == oodb.UpdateModify &&
		u.Attr != docmodel.AttrText && u.Attr != docmodel.AttrChildren {
		return // attribute irrelevant for text representations
	}
	c.mu.RLock()
	cols := make([]*Collection, 0, len(c.byName))
	for _, col := range c.byName {
		cols = append(cols, col)
	}
	c.mu.RUnlock()
	for _, col := range cols {
		col.onUpdate(u)
	}
}

// registerMethods installs getIRSValue / deriveIRSValue on
// IRSObject. getText, length etc. are registered by docmodel.
func (c *Coupling) registerMethods() {
	db := c.db
	resolve := func(args []oodb.Value) (*Collection, string, error) {
		switch len(args) {
		case 1: // getIRSValue(query): collection chosen by coupling
			if args[0].Kind != oodb.KindString {
				return nil, "", errors.New("core: getIRSValue expects a query string")
			}
			c.mu.RLock()
			col := c.defaultColl
			c.mu.RUnlock()
			if col == nil {
				return nil, "", fmt.Errorf("%w: no default collection", ErrNoSuchCollection)
			}
			return col, args[0].Str, nil
		case 2: // getIRSValue(coll, query)
			col, err := c.collectionByValue(args[0])
			if err != nil {
				return nil, "", err
			}
			if args[1].Kind != oodb.KindString {
				return nil, "", errors.New("core: getIRSValue expects a query string")
			}
			return col, args[1].Str, nil
		}
		return nil, "", errors.New("core: getIRSValue expects (collection, query)")
	}
	db.RegisterMethod(docmodel.ClassIRSObject, "getIRSValue",
		func(_ *oodb.DB, self oodb.OID, args []oodb.Value) (oodb.Value, error) {
			col, q, err := resolve(args)
			if err != nil {
				return oodb.Null(), err
			}
			v, err := col.FindIRSValue(q, self)
			if err != nil {
				return oodb.Null(), err
			}
			return oodb.F(v), nil
		})
	db.RegisterMethod(docmodel.ClassIRSObject, "deriveIRSValue",
		func(_ *oodb.DB, self oodb.OID, args []oodb.Value) (oodb.Value, error) {
			col, q, err := resolve(args)
			if err != nil {
				return oodb.Null(), err
			}
			node, err := irs.ParseQuery(q)
			if err != nil {
				return oodb.Null(), err
			}
			v, err := col.deriveValue(node, self)
			if err != nil {
				return oodb.Null(), err
			}
			return oodb.F(v), nil
		})
	// Content predicates are orders of magnitude more expensive than
	// structural ones; annotate for the optimizer ([AbF95]).
	db.SetMethodCost(docmodel.ClassIRSObject, "getIRSValue", 1000)
	db.SetMethodCost(docmodel.ClassIRSObject, "deriveIRSValue", 1000)
}
