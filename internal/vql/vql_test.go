package vql

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/oodb"
)

// fixture builds a two-document database shaped like the paper's MMF
// example: MMFDOC objects containing PARA objects, with structural
// methods (getNext, getContaining, getAttributeValue, length) and a
// table-driven getIRSValue standing in for the coupling.
type fixture struct {
	db    *oodb.DB
	ev    *Evaluator
	docs  []oodb.OID
	paras []oodb.OID
	// irs maps "query" -> oid -> value, consulted by getIRSValue.
	irs map[string]map[oodb.OID]float64
	// irsCalls counts getIRSValue invocations (optimizer tests).
	irsCalls int
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	db, err := oodb.Open("", oodb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{db: db, irs: make(map[string]map[oodb.OID]float64)}
	for _, c := range []struct{ name, super string }{
		{"IRSObject", ""}, {"Element", "IRSObject"},
		{"MMFDOC", "Element"}, {"PARA", "Element"},
	} {
		if err := db.DefineClass(c.name, c.super, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Two documents, two paragraphs each.
	for d := 0; d < 2; d++ {
		doc, _ := db.NewObject("MMFDOC", map[string]oodb.Value{
			"@YEAR":  oodb.S([]string{"1994", "1995"}[d]),
			"@TITLE": oodb.S([]string{"Telnet", "Gopher"}[d]),
		})
		var kids []oodb.OID
		for p := 0; p < 2; p++ {
			para, _ := db.NewObject("PARA", map[string]oodb.Value{
				"parent": oodb.Ref(doc),
				"text":   oodb.S(strings.Repeat("w ", 10*(p+1))),
			})
			kids = append(kids, para)
			fx.paras = append(fx.paras, para)
		}
		db.SetAttr(doc, "children", oodb.RefList(kids))
		fx.docs = append(fx.docs, doc)
	}

	db.RegisterMethod("Element", "getAttributeValue", func(db *oodb.DB, self oodb.OID, args []oodb.Value) (oodb.Value, error) {
		if len(args) != 1 || args[0].Kind != oodb.KindString {
			return oodb.Null(), errors.New("getAttributeValue wants one string")
		}
		v, _ := db.Attr(self, "@"+args[0].Str)
		return v, nil
	})
	db.RegisterMethod("Element", "length", func(db *oodb.DB, self oodb.OID, args []oodb.Value) (oodb.Value, error) {
		v, _ := db.Attr(self, "text")
		return oodb.I(int64(len(v.Str))), nil
	})
	db.RegisterMethod("Element", "getContaining", func(db *oodb.DB, self oodb.OID, args []oodb.Value) (oodb.Value, error) {
		v, _ := db.Attr(self, "parent")
		return v, nil
	})
	db.RegisterMethod("Element", "getNext", func(db *oodb.DB, self oodb.OID, args []oodb.Value) (oodb.Value, error) {
		parent, ok := db.Attr(self, "parent")
		if !ok {
			return oodb.Null(), nil
		}
		kidsV, _ := db.Attr(parent.Ref, "children")
		kids := kidsV.OIDList()
		for i, k := range kids {
			if k == self && i+1 < len(kids) {
				return oodb.Ref(kids[i+1]), nil
			}
		}
		return oodb.Null(), nil
	})
	db.RegisterMethod("IRSObject", "getIRSValue", func(db *oodb.DB, self oodb.OID, args []oodb.Value) (oodb.Value, error) {
		fx.irsCalls++
		if len(args) != 2 {
			return oodb.Null(), errors.New("getIRSValue wants (coll, query)")
		}
		if m := fx.irs[args[1].Str]; m != nil {
			return oodb.F(m[self]), nil
		}
		return oodb.F(0), nil
	})
	db.SetMethodCost("IRSObject", "getIRSValue", 1000)

	fx.ev = NewEvaluator(db, map[string]oodb.Value{
		"collPara": oodb.Ref(oodb.OID(9001)), // a pseudo collection object
	})
	return fx
}

// irsProviderFunc adapts a function to IRSPredicateProvider.
type irsProviderFunc func(coll oodb.Value, q string) (map[oodb.OID]float64, error)

func (f irsProviderFunc) IRSResult(coll oodb.Value, q string) (map[oodb.OID]float64, error) {
	return f(coll, q)
}

func TestParsePaperQueries(t *testing.T) {
	// Both sample queries from Section 4.4, verbatim (modulo the
	// Figure's line breaks).
	q1 := `ACCESS p, p -> length() FROM p IN PARA
WHERE p -> getIRSValue (collPara, 'WWW') > 0.6;`
	q2 := `ACCESS d -> getAttributeValue ('TITLE'),
FROM d IN MMFDOC, p1 IN PARA, p2 IN PARA
WHERE d -> getAttributeValue ('YEAR') = '1994' AND
p1 -> getNext() == p2 AND
p1 -> getContaining ('MMFDOC') == d AND
p1 -> getIRSValue (collPara, 'WWW') > 0.4 AND
p2 -> getIRSValue (collPara, 'NII') > 0.4;`
	for i, src := range []string{q1, q2} {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("paper query %d: %v", i+1, err)
		}
		if q.Where == nil {
			t.Errorf("paper query %d: WHERE lost", i+1)
		}
	}
	q, _ := Parse(q2)
	if len(q.From) != 3 || q.From[0].Var != "d" || q.From[2].Class != "PARA" {
		t.Errorf("FROM parse: %+v", q.From)
	}
	if len(q.Access) != 1 {
		t.Errorf("ACCESS parse (trailing comma): %d exprs", len(q.Access))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT x FROM y IN Z",
		"ACCESS FROM p IN PARA",
		"ACCESS p FROM p",
		"ACCESS p FROM p IN",
		"ACCESS p FROM p IN PARA, p IN PARA",
		"ACCESS p FROM p IN PARA WHERE",
		"ACCESS p FROM p IN PARA extra",
		"ACCESS p -> FROM p IN PARA",
		"ACCESS p -> f( FROM p IN PARA",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	src := `ACCESS p, p -> length() FROM p IN PARA WHERE p -> getIRSValue(collPara, 'WWW') > 0.6 AND NOT p -> flag;`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse of %q: %v", q.String(), err)
	}
	if q.String() != q2.String() {
		t.Errorf("round trip: %q != %q", q.String(), q2.String())
	}
}

func TestSimpleScanAndProjection(t *testing.T) {
	fx := newFixture(t)
	rs, err := fx.ev.Run(`ACCESS p, p -> length() FROM p IN PARA;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rs.Rows))
	}
	if len(rs.Columns) != 2 {
		t.Fatalf("columns = %v", rs.Columns)
	}
	for _, row := range rs.Rows {
		if row[0].Kind != oodb.KindOID || row[1].Kind != oodb.KindInt {
			t.Errorf("row types: %v", row)
		}
	}
}

func TestWhereAttributeAndMethod(t *testing.T) {
	fx := newFixture(t)
	rs, err := fx.ev.Run(`ACCESS d -> getAttributeValue('TITLE') FROM d IN MMFDOC WHERE d -> getAttributeValue('YEAR') = '1994';`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str != "Telnet" {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestIRSValuePredicate(t *testing.T) {
	fx := newFixture(t)
	fx.irs["WWW"] = map[oodb.OID]float64{
		fx.paras[0]: 0.9, fx.paras[1]: 0.5, fx.paras[2]: 0.7,
	}
	rs, err := fx.ev.Run(`ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'WWW') > 0.6;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestPaperJoinQuery(t *testing.T) {
	fx := newFixture(t)
	// p0 relevant to WWW, its next sibling p1 relevant to NII, both
	// in the 1994 document.
	fx.irs["WWW"] = map[oodb.OID]float64{fx.paras[0]: 0.8}
	fx.irs["NII"] = map[oodb.OID]float64{fx.paras[1]: 0.8}
	rs, err := fx.ev.Run(`
ACCESS d -> getAttributeValue('TITLE')
FROM d IN MMFDOC, p1 IN PARA, p2 IN PARA
WHERE d -> getAttributeValue('YEAR') = '1994' AND
p1 -> getNext() == p2 AND
p1 -> getContaining('MMFDOC') == d AND
p1 -> getIRSValue(collPara, 'WWW') > 0.4 AND
p2 -> getIRSValue(collPara, 'NII') > 0.4;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str != "Telnet" {
		t.Errorf("join rows = %v", rs.Rows)
	}
	// Moving the NII relevance to a paragraph of the other document
	// must empty the result.
	fx.irs["NII"] = map[oodb.OID]float64{fx.paras[3]: 0.8}
	rs, err = fx.ev.Run(`
ACCESS d FROM d IN MMFDOC, p1 IN PARA, p2 IN PARA
WHERE p1 -> getNext() == p2 AND
p1 -> getContaining('MMFDOC') == d AND
p1 -> getIRSValue(collPara, 'WWW') > 0.4 AND
p2 -> getIRSValue(collPara, 'NII') > 0.4;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Errorf("expected empty result, got %v", rs.Rows)
	}
}

func TestBooleanOperatorsAndNot(t *testing.T) {
	fx := newFixture(t)
	rs, err := fx.ev.Run(`ACCESS d FROM d IN MMFDOC WHERE d -> getAttributeValue('YEAR') = '1994' OR d -> getAttributeValue('YEAR') = '1995';`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Errorf("OR rows = %d", len(rs.Rows))
	}
	rs, err = fx.ev.Run(`ACCESS d FROM d IN MMFDOC WHERE NOT (d -> getAttributeValue('YEAR') = '1994');`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Errorf("NOT rows = %d", len(rs.Rows))
	}
}

func TestDeepExtentPolymorphicScan(t *testing.T) {
	fx := newFixture(t)
	rs, err := fx.ev.Run(`ACCESS o FROM o IN IRSObject;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 6 { // 2 docs + 4 paras
		t.Errorf("deep extent rows = %d, want 6", len(rs.Rows))
	}
}

func TestEvalErrors(t *testing.T) {
	fx := newFixture(t)
	if _, err := fx.ev.Run(`ACCESS x FROM x IN Ghost;`); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("unknown class: %v", err)
	}
	if _, err := fx.ev.Run(`ACCESS unknownName FROM p IN PARA;`); !errors.Is(err, ErrUnknownName) {
		t.Errorf("unknown name: %v", err)
	}
	if _, err := fx.ev.Run(`ACCESS p -> ghostMethod() FROM p IN PARA;`); err == nil {
		t.Error("missing method tolerated")
	}
	if _, err := fx.ev.Run(`ACCESS p FROM p IN PARA WHERE p -> length() > 'abc';`); err == nil {
		t.Error("type-confused comparison tolerated")
	}
}

func TestPlanPredicateOrdering(t *testing.T) {
	fx := newFixture(t)
	q, err := Parse(`ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'WWW') > 0.1 AND p -> length() > 0;`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fx.ev.PlanQuery(q, StrategyIndependent)
	if err != nil {
		t.Fatal(err)
	}
	desc := plan.Describe()
	iLen := strings.Index(desc, "length")
	iIRS := strings.Index(desc, "getIRSValue")
	if iLen < 0 || iIRS < 0 || iLen > iIRS {
		t.Errorf("cheap predicate not ordered first:\n%s", desc)
	}
	// Cheap predicate filters everything; the expensive IRS method
	// must then never be called... but length()>0 passes all, so IRS
	// runs for each candidate. Flip: length() > 100000 filters all.
	fx.irsCalls = 0
	_, err = fx.ev.RunWithStrategy(`ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'WWW') > 0.1 AND p -> length() > 100000;`, StrategyIndependent)
	if err != nil {
		t.Fatal(err)
	}
	if fx.irsCalls != 0 {
		t.Errorf("expensive method called %d times despite failing cheap filter", fx.irsCalls)
	}
}

func TestIRSFirstStrategyPrefilters(t *testing.T) {
	fx := newFixture(t)
	fx.irs["WWW"] = map[oodb.OID]float64{fx.paras[0]: 0.9, fx.paras[2]: 0.3}
	fx.ev.SetIRSProvider(irsProviderFunc(func(coll oodb.Value, q string) (map[oodb.OID]float64, error) {
		return fx.irs[q], nil
	}))
	q, err := Parse(`ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'WWW') > 0.6;`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fx.ev.PlanQuery(q, StrategyIRSFirst)
	if err != nil {
		t.Fatal(err)
	}
	if plan.IRSPrefilters != 1 {
		t.Fatalf("prefilters = %d\n%s", plan.IRSPrefilters, plan.Describe())
	}
	fx.irsCalls = 0
	rs, err := fx.ev.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Ref != fx.paras[0] {
		t.Errorf("irs-first rows = %v", rs.Rows)
	}
	if fx.irsCalls != 0 {
		t.Errorf("per-object getIRSValue still called %d times under IRS-first", fx.irsCalls)
	}
	// Auto selects IRS-first when a provider is present.
	planAuto, _ := fx.ev.PlanQuery(q, StrategyAuto)
	if planAuto.Strategy != StrategyIRSFirst {
		t.Errorf("auto strategy = %v", planAuto.Strategy)
	}
	// And stays independent for pure structural queries.
	q2, _ := Parse(`ACCESS p FROM p IN PARA WHERE p -> length() > 0;`)
	planStruct, _ := fx.ev.PlanQuery(q2, StrategyAuto)
	if planStruct.Strategy != StrategyIndependent {
		t.Errorf("auto strategy for structural query = %v", planStruct.Strategy)
	}
}

// Property-style check: both strategies agree on results whenever
// the queried variable's objects are all represented in the IRS
// result (the containment condition under which the two strategies
// coincide, Section 4.5.3).
func TestStrategiesAgreeWhenFullyRepresented(t *testing.T) {
	fx := newFixture(t)
	scores := map[oodb.OID]float64{}
	for i, p := range fx.paras {
		scores[p] = float64(i+1) / 10 // 0.1 .. 0.4
	}
	fx.irs["WWW"] = scores
	fx.ev.SetIRSProvider(irsProviderFunc(func(coll oodb.Value, q string) (map[oodb.OID]float64, error) {
		return fx.irs[q], nil
	}))
	for _, threshold := range []string{"0.05", "0.15", "0.25", "0.35", "0.45"} {
		src := `ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'WWW') > ` + threshold + `;`
		a, err := fx.ev.RunWithStrategy(src, StrategyIndependent)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fx.ev.RunWithStrategy(src, StrategyIRSFirst)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Rows) != len(b.Rows) {
			t.Errorf("threshold %s: independent %d rows vs irs-first %d rows",
				threshold, len(a.Rows), len(b.Rows))
		}
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	fx := newFixture(t)
	rs, err := fx.ev.Run(`access p from p in PARA where p -> length() >= 0;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 4 {
		t.Errorf("lowercase keywords rows = %d", len(rs.Rows))
	}
	// Mixed case in operators too.
	rs, err = fx.ev.Run(`ACCESS p FROM p IN PARA WHERE p -> length() > 0 And Not (p -> length() = 0);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 4 {
		t.Errorf("mixed-case operators rows = %d", len(rs.Rows))
	}
}

func TestEqualityOperatorVariants(t *testing.T) {
	fx := newFixture(t)
	for _, op := range []string{"=", "=="} {
		rs, err := fx.ev.Run(`ACCESS d FROM d IN MMFDOC WHERE d -> getAttributeValue('YEAR') ` + op + ` '1994';`)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 1 {
			t.Errorf("op %s rows = %d", op, len(rs.Rows))
		}
	}
	for _, op := range []string{"!=", "<>"} {
		rs, err := fx.ev.Run(`ACCESS d FROM d IN MMFDOC WHERE d -> getAttributeValue('YEAR') ` + op + ` '1994';`)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 1 {
			t.Errorf("op %s rows = %d", op, len(rs.Rows))
		}
	}
}

func TestDistinct(t *testing.T) {
	fx := newFixture(t)
	// Without DISTINCT: the join yields d once per paragraph pair.
	rs, err := fx.ev.Run(`ACCESS d FROM d IN MMFDOC, p IN PARA WHERE p -> getContaining('MMFDOC') == d;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 4 { // 2 docs x 2 own paras
		t.Fatalf("plain rows = %d, want 4", len(rs.Rows))
	}
	rs, err = fx.ev.Run(`ACCESS DISTINCT d FROM d IN MMFDOC, p IN PARA WHERE p -> getContaining('MMFDOC') == d;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("distinct rows = %d, want 2", len(rs.Rows))
	}
	// Round trip keeps the keyword.
	q, err := Parse(`ACCESS DISTINCT d FROM d IN MMFDOC;`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct || !strings.Contains(q.String(), "DISTINCT") {
		t.Errorf("distinct lost: %q", q.String())
	}
	// Multi-column distinctness is per full row.
	rs, err = fx.ev.Run(`ACCESS DISTINCT d, p FROM d IN MMFDOC, p IN PARA WHERE p -> getContaining('MMFDOC') == d;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 4 {
		t.Errorf("distinct (d,p) rows = %d, want 4", len(rs.Rows))
	}
}

// TestPlanQueryOver: a parsed single-binding query evaluated with its
// FROM variable bound to supplied objects selects, in the order given,
// exactly those of them the extent-wide run selects; the query value
// is reusable across plans, and a join is refused.
func TestPlanQueryOver(t *testing.T) {
	fx := newFixture(t)
	q, err := Parse(`ACCESS p FROM p IN PARA WHERE p -> getContaining('MMFDOC') -> getAttributeValue('YEAR') = '1994';`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(plan *Plan, err error) []oodb.OID {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		rs, err := fx.ev.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		var out []oodb.OID
		for _, row := range rs.Rows {
			out = append(out, row[0].Ref)
		}
		return out
	}
	all := run(fx.ev.PlanQuery(q, StrategyAuto))
	if len(all) != 2 || all[0] != fx.paras[0] || all[1] != fx.paras[1] {
		t.Fatalf("extent run = %v, want the 1994 document's paragraphs %v", all, fx.paras[:2])
	}
	// One qualifying and one non-qualifying candidate, reversed order.
	if got := run(fx.ev.PlanQueryOver(q, StrategyAuto, []oodb.OID{fx.paras[3], fx.paras[1]})); len(got) != 1 || got[0] != fx.paras[1] {
		t.Errorf("over {1995 para, 1994 para} = %v, want [%v]", got, fx.paras[1])
	}
	if got := run(fx.ev.PlanQueryOver(q, StrategyAuto, []oodb.OID{fx.paras[1], fx.paras[0]})); len(got) != 2 || got[0] != fx.paras[1] {
		t.Errorf("supplied order not kept: %v", got)
	}
	join, err := Parse(`ACCESS p FROM p IN PARA, d IN MMFDOC WHERE p -> getContaining('MMFDOC') == d;`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.ev.PlanQueryOver(join, StrategyAuto, fx.paras); err == nil {
		t.Error("PlanQueryOver accepted a two-binding query")
	}
}

// TestCandidateDeletedMidQueryDropsOut: a candidate deleted after its
// binding domain was materialised fails the predicate's method call;
// it must leave the result, not fail the query.
func TestCandidateDeletedMidQueryDropsOut(t *testing.T) {
	fx := newFixture(t)
	q, err := Parse(`ACCESS p FROM p IN PARA WHERE p -> length() > 0;`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fx.ev.PlanQuery(q, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.db.DeleteObject(fx.paras[2]); err != nil {
		t.Fatal(err)
	}
	rs, err := fx.ev.Execute(plan)
	if err != nil {
		t.Fatalf("query failed on a concurrently deleted candidate: %v", err)
	}
	if len(rs.Rows) != 3 {
		t.Errorf("rows = %d, want the 3 surviving paragraphs", len(rs.Rows))
	}
	// A failing predicate over a live object is still an error.
	if _, err := fx.ev.Run(`ACCESS p FROM p IN PARA WHERE p -> noSuchMethod() > 0;`); err == nil {
		t.Error("unknown method on a live object did not fail the query")
	}
}
