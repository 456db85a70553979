package vql

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/oodb"
)

// Evaluation errors.
var (
	ErrUnknownName  = errors.New("vql: unknown name")
	ErrNotAnObject  = errors.New("vql: receiver is not an object")
	ErrUnknownClass = errors.New("vql: unknown class in FROM")
)

// IRSPredicateProvider evaluates an IRS content predicate
// set-at-a-time. The coupling layer implements it; the optimizer
// uses it for the IRS-first strategy of Section 4.5.3: "The IRS
// selects all IRS documents fulfilling the conditions on the
// content. The structure conditions are only verified for the text
// objects identified in this first step."
type IRSPredicateProvider interface {
	// IRSResult returns the retrieval values of all objects
	// REPRESENTED in the collection denoted by coll for irsQuery.
	// Objects that would only obtain a value via derivation are not
	// included — the documented semantic difference between the two
	// strategies.
	IRSResult(coll oodb.Value, irsQuery string) (map[oodb.OID]float64, error)
}

// Strategy selects how mixed queries are evaluated (Section 4.5.3).
type Strategy uint8

// Evaluation strategies.
const (
	// StrategyIndependent evaluates every predicate per candidate
	// binding through method calls (alternative 1; IRS results are
	// still buffered by the coupling).
	StrategyIndependent Strategy = iota
	// StrategyIRSFirst restricts a variable's binding domain to the
	// objects returned by the IRS before verifying structural
	// conditions (alternative 2).
	StrategyIRSFirst
	// StrategyAuto lets the optimizer choose per query: IRS-first
	// when an IRS predicate exists and a provider is registered,
	// independent otherwise.
	StrategyAuto
)

func (s Strategy) String() string {
	switch s {
	case StrategyIndependent:
		return "independent"
	case StrategyIRSFirst:
		return "irs-first"
	case StrategyAuto:
		return "auto"
	}
	return "?"
}

// ResultSet is the output of a query.
type ResultSet struct {
	Columns []string
	Rows    [][]oodb.Value
}

// Evaluator runs VQL queries against a database.
type Evaluator struct {
	db       *oodb.DB
	env      map[string]oodb.Value
	provider IRSPredicateProvider
}

// NewEvaluator returns an evaluator over db. env supplies values for
// free identifiers (e.g. collection OIDs like collPara).
func NewEvaluator(db *oodb.DB, env map[string]oodb.Value) *Evaluator {
	if env == nil {
		env = map[string]oodb.Value{}
	}
	return &Evaluator{db: db, env: env}
}

// SetEnv binds a free identifier.
func (ev *Evaluator) SetEnv(name string, v oodb.Value) { ev.env[name] = v }

// SetIRSProvider registers the coupling's set-at-a-time IRS
// interface, enabling the IRS-first strategy.
func (ev *Evaluator) SetIRSProvider(p IRSPredicateProvider) { ev.provider = p }

// Run parses, plans and executes a statement with StrategyAuto.
func (ev *Evaluator) Run(src string) (*ResultSet, error) {
	return ev.RunWithStrategy(src, StrategyAuto)
}

// RunWithStrategy parses, plans and executes a statement under an
// explicit evaluation strategy.
func (ev *Evaluator) RunWithStrategy(src string, s Strategy) (*ResultSet, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	plan, err := ev.PlanQuery(q, s)
	if err != nil {
		return nil, err
	}
	return ev.Execute(plan)
}

// bindings is the runtime variable environment of one candidate row.
type bindings map[string]oodb.OID

// eval evaluates an expression under the current bindings.
func (ev *Evaluator) eval(e Expr, b bindings) (oodb.Value, error) {
	switch n := e.(type) {
	case *Lit:
		return n.Val, nil
	case *Ident:
		if n.bound {
			return oodb.Ref(b[n.Name]), nil
		}
		if v, ok := ev.env[n.Name]; ok {
			return v, nil
		}
		return oodb.Null(), fmt.Errorf("%w: %q", ErrUnknownName, n.Name)
	case *Call:
		recv, err := ev.eval(n.Recv, b)
		if err != nil {
			return oodb.Null(), err
		}
		if recv.Kind != oodb.KindOID {
			return oodb.Null(), fmt.Errorf("%w: %s -> %s", ErrNotAnObject, recv, n.Name)
		}
		if n.IsAttr {
			v, _ := ev.db.Attr(recv.Ref, n.Name)
			return v, nil
		}
		args := make([]oodb.Value, len(n.Args))
		for i, a := range n.Args {
			if args[i], err = ev.eval(a, b); err != nil {
				return oodb.Null(), err
			}
		}
		return ev.db.Call(recv.Ref, n.Name, args...)
	case *Not:
		v, err := ev.eval(n.X, b)
		if err != nil {
			return oodb.Null(), err
		}
		return oodb.B(!v.Truthy()), nil
	case *Binary:
		return ev.evalBinary(n, b)
	}
	return oodb.Null(), fmt.Errorf("vql: unhandled expression %T", e)
}

func (ev *Evaluator) evalBinary(n *Binary, b bindings) (oodb.Value, error) {
	switch n.Op {
	case OpAnd:
		l, err := ev.eval(n.L, b)
		if err != nil {
			return oodb.Null(), err
		}
		if !l.Truthy() {
			return oodb.B(false), nil
		}
		r, err := ev.eval(n.R, b)
		if err != nil {
			return oodb.Null(), err
		}
		return oodb.B(r.Truthy()), nil
	case OpOr:
		l, err := ev.eval(n.L, b)
		if err != nil {
			return oodb.Null(), err
		}
		if l.Truthy() {
			return oodb.B(true), nil
		}
		r, err := ev.eval(n.R, b)
		if err != nil {
			return oodb.Null(), err
		}
		return oodb.B(r.Truthy()), nil
	}
	l, err := ev.eval(n.L, b)
	if err != nil {
		return oodb.Null(), err
	}
	r, err := ev.eval(n.R, b)
	if err != nil {
		return oodb.Null(), err
	}
	switch n.Op {
	case OpEq:
		return oodb.B(l.Equal(r)), nil
	case OpNe:
		return oodb.B(!l.Equal(r)), nil
	}
	c, err := l.Compare(r)
	if err != nil {
		return oodb.Null(), err
	}
	switch n.Op {
	case OpLt:
		return oodb.B(c < 0), nil
	case OpLe:
		return oodb.B(c <= 0), nil
	case OpGt:
		return oodb.B(c > 0), nil
	case OpGe:
		return oodb.B(c >= 0), nil
	}
	return oodb.Null(), fmt.Errorf("vql: unhandled operator %s", n.Op)
}

// rowKey renders a row for duplicate elimination.
func rowKey(row []oodb.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String()
	}
	return strings.Join(parts, "\x1f")
}

// Execute runs a prepared plan.
func (ev *Evaluator) Execute(p *Plan) (*ResultSet, error) {
	if p.query.Distinct {
		p.seenRows = make(map[string]bool)
	}
	rs := &ResultSet{}
	for _, e := range p.query.Access {
		rs.Columns = append(rs.Columns, e.String())
	}
	b := make(bindings, len(p.domains))
	if err := ev.loop(p, 0, b, rs); err != nil {
		return nil, err
	}
	return rs, nil
}

// vanished reports whether an object bound in b has been deleted
// since its binding domain was materialised. Queries read the live
// database without snapshot isolation, so a delete committed while one
// runs can make an expression over such a candidate fail (a method
// call on a missing object, a path that now ends in null); the
// candidate then drops out of the result instead of failing the query.
func (ev *Evaluator) vanished(b bindings) bool {
	for _, oid := range b {
		if !ev.db.Exists(oid) {
			return true
		}
	}
	return false
}

// loop is the nested-loop join over binding domains with predicates
// applied at the earliest depth where their variables are bound.
func (ev *Evaluator) loop(p *Plan, depth int, b bindings, rs *ResultSet) error {
	if depth == len(p.domains) {
		row := make([]oodb.Value, len(p.query.Access))
		for i, e := range p.query.Access {
			v, err := ev.eval(e, b)
			if err != nil {
				if ev.vanished(b) {
					return nil
				}
				return err
			}
			row[i] = v
		}
		if p.query.Distinct {
			key := rowKey(row)
			if p.seenRows[key] {
				return nil
			}
			p.seenRows[key] = true
		}
		rs.Rows = append(rs.Rows, row)
		return nil
	}
	d := p.domains[depth]
	for _, oid := range d.oids {
		b[d.binding.Var] = oid
		ok := true
		for _, pred := range d.preds {
			v, err := ev.eval(pred.expr, b)
			if err != nil && !ev.vanished(b) {
				return err
			}
			if err != nil || !v.Truthy() {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if err := ev.loop(p, depth+1, b, rs); err != nil {
			return err
		}
	}
	delete(b, d.binding.Var)
	return nil
}
