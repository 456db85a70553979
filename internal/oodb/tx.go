package oodb

import (
	"fmt"
	"sort"
)

// Tx is a transaction: mutations are staged locally (with
// read-your-writes visibility) and become visible — and durable —
// atomically at Commit. Validation happens both at staging time
// (against the transaction's view) and again at commit (against the
// then-current database state), so a transaction racing a
// conflicting commit fails as a whole rather than applying halfway.
type Tx struct {
	db      *DB
	ops     []walOp
	created map[OID]string // oid -> class, staged creates
	deleted map[OID]bool
	written map[OID]map[string]Value
	done    bool
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx {
	return &Tx{
		db:      db,
		created: make(map[OID]string),
		deleted: make(map[OID]bool),
		written: make(map[OID]map[string]Value),
	}
}

// NewObject stages creation of an object of class, optionally with
// initial attributes, and returns its pre-allocated OID.
func (tx *Tx) NewObject(class string, attrs map[string]Value) (OID, error) {
	if tx.done {
		return NilOID, ErrTxDone
	}
	tx.db.mu.RLock()
	_, classOK := tx.db.classes[class]
	tx.db.mu.RUnlock()
	if !classOK {
		return NilOID, fmt.Errorf("%w: %q", ErrNoSuchClass, class)
	}
	oid := OID(tx.db.nextOID.Add(1) - 1)
	tx.ops = append(tx.ops, walOp{typ: opCreate, oid: oid, class: class})
	tx.created[oid] = class
	for _, name := range sortedValueAttrs(attrs) {
		if err := tx.SetAttr(oid, name, attrs[name]); err != nil {
			return NilOID, err
		}
	}
	return oid, nil
}

func sortedValueAttrs(m map[string]Value) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SetAttr stages an attribute write.
func (tx *Tx) SetAttr(oid OID, name string, v Value) error {
	if tx.done {
		return ErrTxDone
	}
	class, ok := tx.classOf(oid)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchObject, oid)
	}
	tx.db.mu.RLock()
	err := tx.db.checkAttrKind(class, name, v)
	tx.db.mu.RUnlock()
	if err != nil {
		return err
	}
	tx.ops = append(tx.ops, walOp{typ: opSet, oid: oid, attr: name, val: v})
	w := tx.written[oid]
	if w == nil {
		w = make(map[string]Value)
		tx.written[oid] = w
	}
	w[name] = v
	return nil
}

// DeleteObject stages deletion of an object.
func (tx *Tx) DeleteObject(oid OID) error {
	if tx.done {
		return ErrTxDone
	}
	if _, ok := tx.classOf(oid); !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchObject, oid)
	}
	tx.ops = append(tx.ops, walOp{typ: opDelete, oid: oid})
	tx.deleted[oid] = true
	return nil
}

// classOf resolves an object's class in the transaction's view.
func (tx *Tx) classOf(oid OID) (string, bool) {
	if tx.deleted[oid] {
		return "", false
	}
	if class, ok := tx.created[oid]; ok {
		return class, true
	}
	return tx.db.ClassOf(oid)
}

// Attr reads an attribute with read-your-writes visibility.
func (tx *Tx) Attr(oid OID, name string) (Value, bool) {
	if tx.deleted[oid] {
		return Null(), false
	}
	if w, ok := tx.written[oid]; ok {
		if v, ok := w[name]; ok {
			return v, true
		}
	}
	if _, created := tx.created[oid]; created {
		return Null(), false
	}
	return tx.db.Attr(oid, name)
}

// Abort discards the transaction. Allocated OIDs are not reused.
func (tx *Tx) Abort() {
	tx.done = true
	tx.ops = nil
}

// Commit validates the staged operations against current state,
// appends them to the WAL as one record and applies them. Update
// hooks fire after the lock is released.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	if len(tx.ops) == 0 {
		return nil
	}
	db := tx.db
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	// Re-validate against committed state: every op must still make
	// sense (objects staged earlier in this tx count as present).
	present := make(map[OID]bool)
	for _, op := range tx.ops {
		switch op.typ {
		case opCreate:
			present[op.oid] = true
		case opSet, opDelete:
			if present[op.oid] {
				continue
			}
			if _, ok := db.objects[op.oid]; !ok {
				db.mu.Unlock()
				return fmt.Errorf("oodb: commit conflict: %w: %s", ErrNoSuchObject, op.oid)
			}
			if op.typ == opDelete {
				present[op.oid] = false
			}
		}
	}
	if db.wal != nil {
		if err := db.wal.appendTx(db.nextTx.Add(1), tx.ops); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	updates := db.applyOps(tx.ops)
	db.mu.Unlock()
	db.fireHooks(updates)
	return nil
}

// Auto-commit conveniences. Each wraps a single operation in its own
// transaction.

// NewObject creates an object of class with initial attributes.
func (db *DB) NewObject(class string, attrs map[string]Value) (OID, error) {
	tx := db.Begin()
	oid, err := tx.NewObject(class, attrs)
	if err != nil {
		tx.Abort()
		return NilOID, err
	}
	if err := tx.Commit(); err != nil {
		return NilOID, err
	}
	return oid, nil
}

// SetAttr writes one attribute.
func (db *DB) SetAttr(oid OID, name string, v Value) error {
	tx := db.Begin()
	if err := tx.SetAttr(oid, name, v); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// DeleteObject removes one object.
func (db *DB) DeleteObject(oid OID) error {
	tx := db.Begin()
	if err := tx.DeleteObject(oid); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}
