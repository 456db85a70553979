package oodb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Sentinel errors.
var (
	ErrNoSuchObject  = errors.New("oodb: no such object")
	ErrNoSuchClass   = errors.New("oodb: no such class")
	ErrClassExists   = errors.New("oodb: class already defined")
	ErrNoSuchMethod  = errors.New("oodb: no such method")
	ErrTypeMismatch  = errors.New("oodb: attribute type mismatch")
	ErrTxDone        = errors.New("oodb: transaction already finished")
	ErrClosed        = errors.New("oodb: database closed")
	ErrCycleInSchema = errors.New("oodb: inheritance cycle")
)

// Class describes an element of the schema. Classes form a single-
// inheritance hierarchy (VML-style isA). Attrs optionally declares
// typed attributes; writes to declared attributes are kind-checked,
// undeclared attributes are schema-free (VODAK's own-slot
// flexibility).
type Class struct {
	Name  string
	Super string
	Attrs map[string]Kind
}

// object is the stored representation. Attribute values are treated
// as immutable once stored; mutation goes through SetAttr.
type object struct {
	class string
	attrs map[string]Value
}

// Options configures Open.
type Options struct {
	// SyncWAL forces an fsync after every commit. Durable but slow;
	// benchmarks and bulk loads disable it.
	SyncWAL bool
}

// DB is the object store. All exported methods are safe for
// concurrent use; writes are serialized by transaction commit.
type DB struct {
	mu      sync.RWMutex
	dir     string
	wal     *walWriter
	closed  bool
	classes map[string]*Class
	objects map[OID]*object
	extents map[string]map[OID]struct{}
	nextOID atomic.Uint64
	nextTx  atomic.Uint64

	methodMu sync.RWMutex
	methods  map[string]map[string]Method
	costs    map[string]float64

	hookMu sync.RWMutex
	hooks  []UpdateHook
}

// UpdateKind classifies a committed mutation for update hooks.
type UpdateKind uint8

// Update kinds reported to hooks.
const (
	UpdateCreate UpdateKind = iota
	UpdateModify
	UpdateDelete
)

func (k UpdateKind) String() string {
	switch k {
	case UpdateCreate:
		return "create"
	case UpdateModify:
		return "modify"
	case UpdateDelete:
		return "delete"
	}
	return "?"
}

// Update is one committed mutation event.
type Update struct {
	Kind  UpdateKind
	OID   OID
	Class string
	Attr  string // modified attribute; "" for create/delete
}

// UpdateHook observes committed mutations. Hooks run after the
// commit has been applied and the lock released; the coupling layer
// uses them to drive IRS update propagation (Section 4.6).
type UpdateHook func(u Update)

// Method is a database method: executable behaviour attached to a
// class, invoked through Call with dynamic dispatch along the isA
// chain. Methods read the database through db and must not mutate it
// (queries are side-effect free; updates go through transactions).
type Method func(db *DB, self OID, args []Value) (Value, error)

const (
	snapshotFile = "snapshot.odb"
	walFile      = "wal.log"
)

// Open opens (or creates) a database. With dir == "" the database is
// memory-only: no WAL, no snapshot, full speed — used by tests and
// benchmarks that do not exercise durability.
func Open(dir string, opts Options) (*DB, error) {
	db := &DB{
		dir:     dir,
		classes: make(map[string]*Class),
		objects: make(map[OID]*object),
		extents: make(map[string]map[OID]struct{}),
		methods: make(map[string]map[string]Method),
		costs:   make(map[string]float64),
	}
	db.nextOID.Store(1)
	if dir == "" {
		return db, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("oodb: create dir: %w", err)
	}
	if err := db.loadSnapshot(filepath.Join(dir, snapshotFile)); err != nil {
		return nil, err
	}
	walPath := filepath.Join(dir, walFile)
	intact, err := replayWAL(walPath, func(txid uint64, ops []walOp) error {
		db.applyOps(ops)
		if txid >= db.nextTx.Load() {
			db.nextTx.Store(txid + 1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Drop any torn tail so the next append starts on a record
	// boundary.
	if fi, err := os.Stat(walPath); err == nil && fi.Size() > intact {
		if err := os.Truncate(walPath, intact); err != nil {
			return nil, fmt.Errorf("oodb: truncate torn wal: %w", err)
		}
	}
	w, err := openWAL(walPath, opts.SyncWAL)
	if err != nil {
		return nil, err
	}
	db.wal = w
	return db, nil
}

// Close flushes and closes the database.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.wal != nil {
		return db.wal.close()
	}
	return nil
}

// Dir returns the database directory ("" for memory-only).
func (db *DB) Dir() string { return db.dir }

// applyOps installs committed operations into memory. Callers hold
// the write lock (or have exclusive access during recovery).
func (db *DB) applyOps(ops []walOp) []Update {
	updates := make([]Update, 0, len(ops))
	for _, op := range ops {
		switch op.typ {
		case opDefClass:
			attrs := op.attrs
			if attrs == nil {
				attrs = map[string]Kind{}
			}
			db.classes[op.class] = &Class{Name: op.class, Super: op.super, Attrs: attrs}
			if db.extents[op.class] == nil {
				db.extents[op.class] = make(map[OID]struct{})
			}
		case opCreate:
			db.objects[op.oid] = &object{class: op.class, attrs: make(map[string]Value)}
			if db.extents[op.class] == nil {
				db.extents[op.class] = make(map[OID]struct{})
			}
			db.extents[op.class][op.oid] = struct{}{}
			if uint64(op.oid) >= db.nextOID.Load() {
				db.nextOID.Store(uint64(op.oid) + 1)
			}
			updates = append(updates, Update{Kind: UpdateCreate, OID: op.oid, Class: op.class})
		case opSet:
			if obj := db.objects[op.oid]; obj != nil {
				obj.attrs[op.attr] = op.val
				updates = append(updates, Update{Kind: UpdateModify, OID: op.oid, Class: obj.class, Attr: op.attr})
			}
		case opDelete:
			if obj := db.objects[op.oid]; obj != nil {
				delete(db.extents[obj.class], op.oid)
				delete(db.objects, op.oid)
				updates = append(updates, Update{Kind: UpdateDelete, OID: op.oid, Class: obj.class})
			}
		}
	}
	return updates
}

// DefineClass adds a class to the schema. super may be "" for a
// root class and must name an existing class otherwise. The schema
// change is durable (logged like a transaction).
func (db *DB) DefineClass(name, super string, attrs map[string]Kind) error {
	if name == "" {
		return errors.New("oodb: empty class name")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if _, ok := db.classes[name]; ok {
		return fmt.Errorf("%w: %q", ErrClassExists, name)
	}
	if super != "" {
		if _, ok := db.classes[super]; !ok {
			return fmt.Errorf("%w: superclass %q", ErrNoSuchClass, super)
		}
	}
	ops := []walOp{{typ: opDefClass, class: name, super: super, attrs: attrs}}
	if db.wal != nil {
		if err := db.wal.appendTx(db.nextTx.Add(1), ops); err != nil {
			return err
		}
	}
	db.applyOps(ops)
	return nil
}

// Class returns the class descriptor.
func (db *DB) Class(name string) (*Class, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, ok := db.classes[name]
	return c, ok
}

// Classes returns all class names, sorted.
func (db *DB) Classes() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.classes))
	for n := range db.classes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IsA reports whether class equals or transitively inherits from
// ancestor.
func (db *DB) IsA(class, ancestor string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.isALocked(class, ancestor)
}

func (db *DB) isALocked(class, ancestor string) bool {
	for class != "" {
		if class == ancestor {
			return true
		}
		c, ok := db.classes[class]
		if !ok {
			return false
		}
		class = c.Super
	}
	return false
}

// Subclasses returns class and every class transitively inheriting
// from it, sorted.
func (db *DB) Subclasses(class string) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for name := range db.classes {
		if db.isALocked(name, class) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Extent returns the OIDs of the direct instances of class; with
// deep, instances of subclasses are included. The result is sorted.
func (db *DB) Extent(class string, deep bool) []OID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []OID
	if !deep {
		for oid := range db.extents[class] {
			out = append(out, oid)
		}
		return SortOIDs(out)
	}
	for name := range db.classes {
		if !db.isALocked(name, class) {
			continue
		}
		for oid := range db.extents[name] {
			out = append(out, oid)
		}
	}
	return SortOIDs(out)
}

// ClassOf returns the class of an object.
func (db *DB) ClassOf(oid OID) (string, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	obj, ok := db.objects[oid]
	if !ok {
		return "", false
	}
	return obj.class, true
}

// Exists reports whether the object is stored.
func (db *DB) Exists(oid OID) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.objects[oid]
	return ok
}

// Attr reads one attribute. The second result is false when the
// object does not exist or the attribute is unset.
func (db *DB) Attr(oid OID, name string) (Value, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	obj, ok := db.objects[oid]
	if !ok {
		return Null(), false
	}
	v, ok := obj.attrs[name]
	return v, ok
}

// Attrs returns a copy of all attributes of an object.
func (db *DB) Attrs(oid OID) (map[string]Value, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	obj, ok := db.objects[oid]
	if !ok {
		return nil, false
	}
	out := make(map[string]Value, len(obj.attrs))
	for k, v := range obj.attrs {
		out[k] = v
	}
	return out, true
}

// ObjectCount returns the number of stored objects.
func (db *DB) ObjectCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.objects)
}

// AddUpdateHook registers a committed-mutation observer.
func (db *DB) AddUpdateHook(h UpdateHook) {
	db.hookMu.Lock()
	defer db.hookMu.Unlock()
	db.hooks = append(db.hooks, h)
}

func (db *DB) fireHooks(updates []Update) {
	if len(updates) == 0 {
		return
	}
	db.hookMu.RLock()
	hooks := db.hooks
	db.hookMu.RUnlock()
	for _, h := range hooks {
		for _, u := range updates {
			h(u)
		}
	}
}

// RegisterMethod attaches behaviour to a class. Registration is a
// runtime concern (methods are Go functions), not persisted.
func (db *DB) RegisterMethod(class, name string, fn Method) {
	db.methodMu.Lock()
	defer db.methodMu.Unlock()
	m := db.methods[class]
	if m == nil {
		m = make(map[string]Method)
		db.methods[class] = m
	}
	m[name] = fn
}

// SetMethodCost annotates a method with a relative evaluation cost
// for the VQL optimizer (method-based query optimization, [AbF95]).
// The default cost is 1; IRS-backed methods are orders of magnitude
// more expensive than attribute accessors.
func (db *DB) SetMethodCost(class, name string, cost float64) {
	db.methodMu.Lock()
	defer db.methodMu.Unlock()
	db.costs[class+"->"+name] = cost
}

// MethodCost returns the annotated cost of the method as resolved
// for class (walking the isA chain), defaulting to 1.
func (db *DB) MethodCost(class, name string) float64 {
	db.mu.RLock()
	chain := db.classChain(class)
	db.mu.RUnlock()
	db.methodMu.RLock()
	defer db.methodMu.RUnlock()
	for _, c := range chain {
		if cost, ok := db.costs[c+"->"+name]; ok {
			return cost
		}
	}
	return 1
}

func (db *DB) classChain(class string) []string {
	var chain []string
	for class != "" {
		chain = append(chain, class)
		c, ok := db.classes[class]
		if !ok {
			break
		}
		class = c.Super
	}
	return chain
}

// ResolveMethod finds the method implementation for class, walking
// the inheritance chain (dynamic dispatch).
func (db *DB) ResolveMethod(class, name string) (Method, bool) {
	db.mu.RLock()
	chain := db.classChain(class)
	db.mu.RUnlock()
	db.methodMu.RLock()
	defer db.methodMu.RUnlock()
	for _, c := range chain {
		if fn, ok := db.methods[c][name]; ok {
			return fn, true
		}
	}
	return nil, false
}

// Call invokes a method on an object with dynamic dispatch.
func (db *DB) Call(self OID, name string, args ...Value) (Value, error) {
	class, ok := db.ClassOf(self)
	if !ok {
		return Null(), fmt.Errorf("%w: %s", ErrNoSuchObject, self)
	}
	fn, ok := db.ResolveMethod(class, name)
	if !ok {
		return Null(), fmt.Errorf("%w: %s->%s", ErrNoSuchMethod, class, name)
	}
	return fn(db, self, args)
}

// checkAttrKind validates a write against the declared attribute
// kinds along the inheritance chain. Undeclared attributes are
// schema-free. Null is always allowed.
func (db *DB) checkAttrKind(class, attr string, v Value) error {
	if v.IsNull() {
		return nil
	}
	for _, c := range db.classChain(class) {
		cl, ok := db.classes[c]
		if !ok {
			break
		}
		if want, declared := cl.Attrs[attr]; declared {
			if v.Kind != want {
				return fmt.Errorf("%w: %s.%s wants %s, got %s", ErrTypeMismatch, class, attr, want, v.Kind)
			}
			return nil
		}
	}
	return nil
}
