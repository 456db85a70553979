package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// Everything the server is sent is derived here from the seed alone;
// the server never sees the seed or the workload name.

const (
	corpusDocs   = 2000 // ≈21 000 paragraphs, ≈3.9 MB of SGML
	vocabulary   = 5000
	coldPoolSize = 16384 // 16x the server's 1024-entry query cache
	hotPoolSize  = 512   // fits the cache
	hotZipfS     = 1.1
	subQueries   = 64 // IRS sub-queries behind the mixed statements
	searchLimit  = 10
)

// corpusConfig is the generator configuration of the served corpus.
func corpusConfig(seed int64, docs int) workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Docs = docs
	cfg.Vocabulary = vocabulary
	cfg.Seed = seed
	return cfg
}

// termDrawer draws query terms the way the corpus generator draws
// words: a zipfian background word, or (one time in four) a planted
// topic term.
type termDrawer struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	topics []string
}

func newTermDrawer(rng *rand.Rand) *termDrawer {
	d := &termDrawer{rng: rng, zipf: rand.NewZipf(rng, 1.2, 1.0, vocabulary-1)}
	for _, t := range workload.DefaultTopics() {
		d.topics = append(d.topics, t.Terms...)
	}
	return d
}

func (d *termDrawer) term() string {
	if d.rng.Intn(4) == 0 {
		return d.topics[d.rng.Intn(len(d.topics))]
	}
	return fmt.Sprintf("w%03d", d.zipf.Uint64())
}

// irsQuery renders 1–4 distinct terms bare or under #and/#or/#sum.
func (d *termDrawer) irsQuery() string {
	n := 1 + d.rng.Intn(4)
	terms := make([]string, 0, n)
	for len(terms) < n {
		t := d.term()
		dup := false
		for _, u := range terms {
			dup = dup || u == t
		}
		if !dup {
			terms = append(terms, t)
		}
	}
	body := strings.Join(terms, " ")
	if n == 1 {
		return body
	}
	switch d.rng.Intn(4) {
	case 0:
		return "#and(" + body + ")"
	case 1:
		return "#or(" + body + ")"
	case 2:
		return "#sum(" + body + ")"
	}
	return body
}

// searchPool returns n distinct IRS queries.
func searchPool(seed int64, n int) []string {
	d := newTermDrawer(rand.New(rand.NewSource(seed ^ 0x5ea4c4)))
	seen := make(map[string]bool, n)
	pool := make([]string, 0, n)
	for len(pool) < n {
		q := d.irsQuery()
		if !seen[q] {
			seen[q] = true
			pool = append(pool, q)
		}
	}
	return pool
}

// topicQueries are the planted-term queries whose every hit must be a
// paragraph the corpus generator marked relevant.
func topicQueries() (queries, topics []string) {
	for _, t := range workload.DefaultTopics() {
		for _, term := range t.Terms {
			queries = append(queries, term)
			topics = append(topics, t.Name)
		}
	}
	return queries, topics
}

// subQuery is one IRS sub-query of the mixed workload with the score
// ladder the server returned for it during set-up; thresholds are cut
// between two rungs so that the row count of a statement is known to
// be moderate whatever the ranking model's score range is.
type subQuery struct {
	coll   string
	irs    string
	ladder []float64 // scores, best first
}

// subQueryTexts returns the IRS sub-queries of the mixed workload:
// planted terms and mid-frequency background words, never the head of
// the zipfian (its result map has a row per paragraph, which would
// measure map copying, not the coupling).
func subQueryTexts(seed int64) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x6d1bed))
	var topics []string
	for _, t := range workload.DefaultTopics() {
		topics = append(topics, t.Terms...)
	}
	word := func() string { return fmt.Sprintf("w%03d", 40+rng.Intn(400)) }
	seen := map[string]bool{}
	var out []string
	for len(out) < subQueries {
		var q string
		switch rng.Intn(4) {
		case 0:
			q = topics[rng.Intn(len(topics))]
		case 1:
			q = word()
		case 2:
			q = "#or(" + topics[rng.Intn(len(topics))] + " " + word() + ")"
		case 3:
			q = "#sum(" + word() + " " + word() + ")"
		}
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// mixedStmt is one VQL statement of the mixed workload together with
// the parts it was rendered from, which is what lets the oracle
// recompute its answer without the VQL evaluator.
type mixedStmt struct {
	text  string
	coll  string  // collPara or collDoc
	irs   string  // IRS sub-query
	theta float64 // exactly the value the text carries
	attr  string  // "", "YEAR" or "KIND": predicate on the (containing) document
	value string
}

// mixedStatement renders one VQL statement: a getIRSValue predicate on
// collPara or collDoc joined with a structural predicate. The
// threshold sits between two neighbouring scores of the sub-query's
// ladder, so the statement text is nearly always new to the server's
// query cache while the sub-query itself repeats and stays in the
// persistent result buffer.
func mixedStatement(rng *rand.Rand, subs []subQuery, years [2]int) mixedStmt {
	sq := subs[rng.Intn(len(subs))]
	theta := "0.5"
	if n := len(sq.ladder); n >= 2 {
		r := rng.Intn(n - 1)
		theta = strconv.FormatFloat((sq.ladder[r]+sq.ladder[r+1])/2, 'f', 9, 64)
	}
	m := mixedStmt{coll: sq.coll, irs: sq.irs}
	m.theta, _ = strconv.ParseFloat(theta, 64) // theta was formatted two lines up
	switch rng.Intn(3) {
	case 0:
		m.attr, m.value = "YEAR", strconv.Itoa(years[0]+rng.Intn(years[1]-years[0]+1))
	case 1:
		m.attr, m.value = "KIND", []string{"report", "review", "news"}[rng.Intn(3)]
	}
	if sq.coll == "collDoc" {
		m.text = fmt.Sprintf("ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue(collDoc, '%s') > %s", sq.irs, theta)
		if m.attr != "" {
			m.text += fmt.Sprintf(" AND d -> getAttributeValue('%s') = '%s'", m.attr, m.value)
		}
	} else {
		m.text = fmt.Sprintf("ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, '%s') > %s", sq.irs, theta)
		if m.attr != "" {
			m.text += fmt.Sprintf(" AND p -> getContaining('MMFDOC') -> getAttributeValue('%s') = '%s'", m.attr, m.value)
		}
	}
	m.text += ";"
	return m
}

// Write operations of the ingest_serve workload.
const (
	opIngest = iota // POST /documents, one document, mode async, then probe until searchable
	opEdit          // PUT /documents/{leaf}/text, then probe until searchable
	opDelete        // DELETE /documents/{oid} of a document the lane ingested earlier
)

// writeLanes is the number of connections the write stream is dealt
// to. A write holds its connection until the server has made it
// searchable; independent writers do not wait for each other, so each
// lane is an open loop of its own at an equal share of the rate.
const writeLanes = 4

// writeOp is one write of a lane's stream. Targets are indexes,
// resolved against what set-up and the lane's earlier acknowledgements
// returned.
type writeOp struct {
	kind   int
	token  string // unique term carried by the new document or text
	sgml   string // opIngest: the document
	text   string // opEdit: the new paragraph text
	target int    // opEdit: index into the edit pool; opDelete: n-th document the lane ingested
}

// writeStream returns the n writes of one lane: 45% new documents, 45%
// paragraph edits, 10% deletes of documents the lane itself ingested
// earlier (never more than it ingested and has not yet deleted). Every
// new document and every edit carries a term no other text contains. A
// lane edits only the paragraphs whose pool index it owns (index mod
// writeLanes), so two edits of one paragraph are always sent in stream
// order and "the latest edit" is well defined.
func writeStream(seed int64, lane, n, editPool int) []writeOp {
	rng := rand.New(rand.NewSource(seed ^ 0x1a9e57 + int64(lane)*7919))
	docs := workload.Generate(corpusConfig(seed^0x0d0c5+int64(lane), n)).Docs
	zipf := rand.NewZipf(rng, 1.2, 1.0, vocabulary-1)
	ops := make([]writeOp, 0, n)
	ingested, deleted := 0, 0
	for i := 0; i < n; i++ {
		token := fmt.Sprintf("zq%dl%dx%d", uint64(seed)%100000, lane, i)
		r := rng.Intn(100)
		switch {
		case r < 10 && deleted < ingested:
			ops = append(ops, writeOp{kind: opDelete, target: deleted})
			deleted++
		case r < 55 && editPool >= writeLanes:
			var sb strings.Builder
			sb.WriteString(token)
			for w := 0; w < 20; w++ {
				fmt.Fprintf(&sb, " w%03d", zipf.Uint64())
			}
			target := rng.Intn(editPool/writeLanes)*writeLanes + lane
			ops = append(ops, writeOp{kind: opEdit, token: token, text: sb.String(), target: target})
		default:
			sgml := strings.Replace(docs[i].SGML, "<PARA>", "<PARA>"+token+" ", 1)
			ops = append(ops, writeOp{kind: opIngest, token: token, sgml: sgml})
			ingested++
		}
	}
	return ops
}
