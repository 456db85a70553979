package vql

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/oodb"
)

// Plan is a prepared execution plan: one binding domain per FROM
// variable (in FROM order) with the conjuncts of the WHERE clause
// attached to the earliest domain at which all their variables are
// bound, ordered cheapest-first within a domain. With the IRS-first
// strategy, domains of variables carrying an IRS predicate are
// pre-restricted through the set-at-a-time IRS interface.
type Plan struct {
	query    *Query
	domains  []domain
	Strategy Strategy
	// IRSPrefilters counts how many IRS predicates were folded into
	// binding domains (diagnostics for EXP-T2).
	IRSPrefilters int
	seenRows      map[string]bool // DISTINCT bookkeeping per Execute
}

type domain struct {
	binding Binding
	oids    []oodb.OID
	preds   []planPred
}

type planPred struct {
	expr Expr
	cost float64
}

// Describe renders the plan for diagnostics and tests.
func (p *Plan) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "strategy=%s prefilters=%d\n", p.Strategy, p.IRSPrefilters)
	for _, d := range p.domains {
		fmt.Fprintf(&sb, "scan %s IN %s (%d candidates)\n", d.binding.Var, d.binding.Class, len(d.oids))
		for _, pr := range d.preds {
			fmt.Fprintf(&sb, "  filter [cost %.0f] %s\n", pr.cost, pr.expr.String())
		}
	}
	return sb.String()
}

// PlanQuery prepares an execution plan for q under strategy s.
func (ev *Evaluator) PlanQuery(q *Query, s Strategy) (*Plan, error) {
	return ev.plan(q, s, func(b Binding) []oodb.OID { return ev.db.Extent(b.Class, true) })
}

// PlanQueryOver is PlanQuery for a single-binding query with the FROM
// variable bound to oids instead of the class extent: the query is
// evaluated over exactly those objects, in the order given. The caller
// vouches that they are instances of the FROM class — update
// propagation decides membership of newly created objects this way,
// without touching the extent.
func (ev *Evaluator) PlanQueryOver(q *Query, s Strategy, oids []oodb.OID) (*Plan, error) {
	if len(q.From) != 1 {
		return nil, fmt.Errorf("vql: PlanQueryOver needs one FROM binding, query has %d", len(q.From))
	}
	return ev.plan(q, s, func(Binding) []oodb.OID { return oids })
}

func (ev *Evaluator) plan(q *Query, s Strategy, domainOf func(Binding) []oodb.OID) (*Plan, error) {
	p := &Plan{query: q}
	for _, b := range q.From {
		if _, ok := ev.db.Class(b.Class); !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownClass, b.Class)
		}
		p.domains = append(p.domains, domain{binding: b, oids: domainOf(b)})
	}
	conjuncts := splitConjuncts(q.Where)

	// Resolve strategy.
	resolved := s
	if resolved == StrategyAuto {
		resolved = StrategyIndependent
		if ev.provider != nil {
			for _, c := range conjuncts {
				if pred, ok := ev.matchIRSPredicate(c); ok && pred != nil {
					resolved = StrategyIRSFirst
					break
				}
			}
		}
	}
	p.Strategy = resolved

	// IRS-first: fold eligible IRS predicates into their variable's
	// binding domain.
	remaining := conjuncts[:0]
	for _, c := range conjuncts {
		if resolved == StrategyIRSFirst && ev.provider != nil {
			if pred, ok := ev.matchIRSPredicate(c); ok {
				scores, err := ev.provider.IRSResult(pred.coll, pred.query)
				if err != nil {
					return nil, err
				}
				di := p.domainIndex(pred.variable)
				if di >= 0 {
					p.domains[di].oids = filterByScore(p.domains[di].oids, scores, pred)
					p.IRSPrefilters++
					continue // conjunct fully absorbed by the prefilter
				}
			}
		}
		remaining = append(remaining, c)
	}

	// Attach remaining conjuncts at the earliest depth where all
	// their variables are bound; order by estimated cost within a
	// depth (cheap structural predicates run before expensive
	// content predicates — the method-based optimization the paper
	// cites from [AbF95]).
	boundAt := make(map[string]int, len(q.From))
	classOf := make(map[string]string, len(q.From))
	for i, b := range q.From {
		boundAt[b.Var] = i
		classOf[b.Var] = b.Class
	}
	for _, c := range remaining {
		depth := 0
		for _, v := range FreeVars(c) {
			if d, ok := boundAt[v]; ok && d > depth {
				depth = d
			}
		}
		p.domains[depth].preds = append(p.domains[depth].preds, planPred{
			expr: c,
			cost: ev.estimateCost(c, classOf),
		})
	}
	for i := range p.domains {
		preds := p.domains[i].preds
		sort.SliceStable(preds, func(a, b int) bool { return preds[a].cost < preds[b].cost })
	}
	return p, nil
}

func (p *Plan) domainIndex(variable string) int {
	for i := range p.domains {
		if p.domains[i].binding.Var == variable {
			return i
		}
	}
	return -1
}

// splitConjuncts flattens the AND tree of the WHERE clause.
func splitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// irsPredicate is a recognized conjunct of the form
//
//	v -> getIRSValue(coll, 'query') <cmp> threshold
//
// with coll and threshold free of query variables.
type irsPredicate struct {
	variable  string
	coll      oodb.Value
	query     string
	op        BinOp
	threshold float64
}

// matchIRSPredicate recognizes the IRS predicate pattern. The bool
// result reports a match; errors in evaluating the collection
// expression surface as a nil predicate with ok=false.
func (ev *Evaluator) matchIRSPredicate(e Expr) (*irsPredicate, bool) {
	b, ok := e.(*Binary)
	if !ok {
		return nil, false
	}
	call, lit, op := (*Call)(nil), (*Lit)(nil), b.Op
	if c, okc := b.L.(*Call); okc {
		if l, okl := b.R.(*Lit); okl {
			call, lit = c, l
		}
	}
	if call == nil {
		if c, okc := b.R.(*Call); okc {
			if l, okl := b.L.(*Lit); okl {
				call, lit = c, l
				op = flipCmp(op)
			}
		}
	}
	if call == nil || call.IsAttr || call.Name != "getIRSValue" || len(call.Args) != 2 {
		return nil, false
	}
	recv, ok := call.Recv.(*Ident)
	if !ok || !recv.bound {
		return nil, false
	}
	qlit, ok := call.Args[1].(*Lit)
	if !ok || qlit.Val.Kind != oodb.KindString {
		return nil, false
	}
	threshold, ok := lit.Val.AsFloat()
	if !ok {
		return nil, false
	}
	switch op {
	case OpGt, OpGe, OpLt, OpLe, OpEq:
	default:
		return nil, false
	}
	// The collection expression must be evaluable without bindings.
	coll, err := ev.eval(call.Args[0], nil)
	if err != nil || coll.Kind != oodb.KindOID {
		return nil, false
	}
	return &irsPredicate{
		variable:  recv.Name,
		coll:      coll,
		query:     qlit.Val.Str,
		op:        op,
		threshold: threshold,
	}, true
}

func flipCmp(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

func filterByScore(oids []oodb.OID, scores map[oodb.OID]float64, pred *irsPredicate) []oodb.OID {
	var out []oodb.OID
	for _, oid := range oids {
		score, ok := scores[oid]
		if !ok {
			continue
		}
		keep := false
		switch pred.op {
		case OpGt:
			keep = score > pred.threshold
		case OpGe:
			keep = score >= pred.threshold
		case OpLt:
			keep = score < pred.threshold
		case OpLe:
			keep = score <= pred.threshold
		case OpEq:
			keep = score == pred.threshold
		}
		if keep {
			out = append(out, oid)
		}
	}
	return out
}

// estimateCost scores an expression by summing the costs of the
// methods it invokes (attribute accesses and literals cost ~0).
// classOf maps query variables to their FROM classes so annotated
// method costs ([AbF95]) resolve along the right class chain.
func (ev *Evaluator) estimateCost(e Expr, classOf map[string]string) float64 {
	switch n := e.(type) {
	case *Lit:
		return 0
	case *Ident:
		return 0
	case *Not:
		return ev.estimateCost(n.X, classOf)
	case *Binary:
		return ev.estimateCost(n.L, classOf) + ev.estimateCost(n.R, classOf)
	case *Call:
		cost := ev.estimateCost(n.Recv, classOf)
		for _, a := range n.Args {
			cost += ev.estimateCost(a, classOf)
		}
		if n.IsAttr {
			return cost + 0.1
		}
		if id, ok := n.Recv.(*Ident); ok && id.bound {
			if class, ok := classOf[id.Name]; ok {
				return cost + ev.db.MethodCost(class, n.Name)
			}
		}
		return cost + 1
	}
	return 1
}
