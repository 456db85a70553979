// Package vql implements the OODBMS query language of the coupling —
// the role VODAK's VQL plays in the paper. Queries have the form
//
//	ACCESS [DISTINCT] <expr>, ... FROM v1 IN Class1, v2 IN Class2, ...
//	WHERE <condition>;
//
// and may mix structural predicates (attribute access, method calls
// like getNext or getContaining) with content predicates
// (getIRSValue against a collection) exactly as in the paper's
// Section 4.4 examples, which parse verbatim.
//
// The evaluator performs nested-loop binding over class extents with
// predicate pushdown; the optimizer additionally orders predicates
// by method cost ([AbF95]-style method-based optimization) and can
// rewrite IRS predicates into a set-at-a-time prefilter (the
// "IRS-first" evaluation strategy of Section 4.5.3).
package vql

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/oodb"
)

// Query is a parsed ACCESS...FROM...WHERE statement.
type Query struct {
	// Distinct suppresses duplicate result rows (set semantics, as
	// in the paper's sample queries where a document qualifying via
	// several paragraphs is still one answer).
	Distinct bool
	Access   []Expr
	From     []Binding
	Where    Expr // nil when absent
}

// Binding is one FROM clause entry: variable IN Class.
type Binding struct {
	Var   string
	Class string
}

// String renders the query in canonical syntax.
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("ACCESS ")
	if q.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, e := range q.Access {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(e.String())
	}
	sb.WriteString(" FROM ")
	for i, b := range q.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(b.Var + " IN " + b.Class)
	}
	if q.Where != nil {
		sb.WriteString(" WHERE " + q.Where.String())
	}
	sb.WriteByte(';')
	return sb.String()
}

// Expr is a VQL expression node.
type Expr interface {
	String() string
	// vars reports the free query variables of the expression.
	vars(set map[string]bool)
}

// Lit is a literal constant.
type Lit struct {
	Val oodb.Value
}

func (l *Lit) String() string {
	if l.Val.Kind == oodb.KindString {
		return "'" + strings.ReplaceAll(l.Val.Str, "'", "''") + "'"
	}
	return l.Val.String()
}

func (l *Lit) vars(map[string]bool) {}

// Ident references either a FROM variable or an application-supplied
// environment name (e.g. collPara, "the OID of a paragraph-
// collection" in the paper's examples).
type Ident struct {
	Name string
	// bound is set by the parser when the name matches a FROM
	// variable; unbound idents resolve through the environment.
	bound bool
}

func (v *Ident) String() string { return v.Name }

func (v *Ident) vars(set map[string]bool) {
	if v.bound {
		set[v.Name] = true
	}
}

// Call is a method invocation (recv -> name(args...)) or attribute
// access (recv -> name).
type Call struct {
	Recv   Expr
	Name   string
	Args   []Expr
	IsAttr bool // no parentheses: attribute access
}

func (c *Call) String() string {
	var sb strings.Builder
	sb.WriteString(c.Recv.String())
	sb.WriteString(" -> ")
	sb.WriteString(c.Name)
	if !c.IsAttr {
		sb.WriteByte('(')
		for i, a := range c.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.String())
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

func (c *Call) vars(set map[string]bool) {
	c.Recv.vars(set)
	for _, a := range c.Args {
		a.vars(set)
	}
}

// BinOp enumerates binary operators.
type BinOp string

// Binary operators.
const (
	OpEq  BinOp = "=="
	OpNe  BinOp = "!="
	OpLt  BinOp = "<"
	OpLe  BinOp = "<="
	OpGt  BinOp = ">"
	OpGe  BinOp = ">="
	OpAnd BinOp = "AND"
	OpOr  BinOp = "OR"
)

// Binary is a binary operation.
type Binary struct {
	Op   BinOp
	L, R Expr
}

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L.String(), b.Op, b.R.String())
}

func (b *Binary) vars(set map[string]bool) {
	b.L.vars(set)
	b.R.vars(set)
}

// Not is logical negation.
type Not struct {
	X Expr
}

func (n *Not) String() string { return "NOT " + n.X.String() }

func (n *Not) vars(set map[string]bool) { n.X.vars(set) }

// FreeVars returns the FROM variables referenced by e, sorted.
func FreeVars(e Expr) []string {
	set := make(map[string]bool)
	e.vars(set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}
