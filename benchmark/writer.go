package main

import (
	"encoding/json"
	"time"
)

// ingested is one document a lane stored.
type ingested struct {
	oid, token string
	bytes      int
	deleted    bool
}

// lane is one connection's share of the write stream and what the
// server acknowledged on it, for the audit after the crash. Only the
// lane's own goroutine writes its fields.
type lane struct {
	c         *conn
	ops       []writeOp
	next      int // position in ops; phases continue the stream
	docs      []ingested
	lastEdit  map[int]string // edit-pool index → token of the latest acknowledged edit
	acked     int            // acknowledged writes
	textBytes int64          // bytes of SGML and text they carried
}

// writer executes the write stream of ingest_serve.
type writer struct {
	leafOIDs []string
	paraOIDs []string
	lanes    [writeLanes]lane

	acksAtMeasure int // acknowledged writes and their bytes when measurement began
	textAtMeasure int64
}

func newWriter(addr string, seed int64, perLane int, leafOIDs, paraOIDs []string) *writer {
	w := &writer{leafOIDs: leafOIDs, paraOIDs: paraOIDs}
	for i := range w.lanes {
		w.lanes[i] = lane{c: newConn(addr), ops: writeStream(seed, i, perLane, len(leafOIDs)), lastEdit: map[int]string{}}
	}
	return w
}

// acks returns the acknowledged writes and the bytes they carried.
func (w *writer) acks() (n int, bytes int64) {
	for i := range w.lanes {
		n += w.lanes[i].acked
		bytes += w.lanes[i].textBytes
	}
	return n, bytes
}

// visibleLimit bounds the wait for a write to become searchable.
const visibleLimit = time.Second

// probe searches collPara for token until accept passes the reply.
func (l *lane) probe(token string, since time.Time, accept func(body []byte) bool) (time.Time, bool) {
	path := searchPath("collPara", token, searchLimit)
	for {
		status, body, err := l.c.do("GET", path, nil)
		now := time.Now()
		if err == nil && status == 200 && accept(body) {
			return now, true
		}
		if now.Sub(since) > visibleLimit {
			return now, false
		}
	}
}

// op returns the open-loop operation of one lane: each call executes
// the lane's next write. A new document and an edit file two samples:
// the acknowledgement (kIngest, kEdit: added here) and the moment the
// write was first searchable (kSearchable, kVisible: returned).
func (w *writer) op(i int, rec *recorder, start time.Time) func(int, time.Time) (uint8, time.Time, bool) {
	l := &w.lanes[i]
	ack := func(kind uint8, dueAt, acked time.Time, ok bool) {
		rec.add(sample{kind: kind, ok: ok, at: dueAt.Sub(start), lat: acked.Sub(dueAt)})
	}
	return func(_ int, dueAt time.Time) (uint8, time.Time, bool) {
		o := l.ops[l.next%len(l.ops)]
		l.next++
		switch o.kind {
		case opIngest:
			payload, _ := json.Marshal(map[string]any{"dtd": "mmf", "mode": "async", "documents": []string{o.sgml}})
			status, body, err := l.c.do("POST", "/documents", payload)
			acked := time.Now()
			var rep struct {
				OIDs []string `json:"oids"`
			}
			ok := err == nil && status == 202 && json.Unmarshal(body, &rep) == nil && len(rep.OIDs) == 1
			ack(kIngest, dueAt, acked, ok)
			if !ok {
				return kSearchable, acked, false
			}
			l.docs = append(l.docs, ingested{oid: rep.OIDs[0], token: o.token, bytes: len(o.sgml)})
			l.acked++
			l.textBytes += int64(len(o.sgml))
			done, found := l.probe(o.token, acked, func(body []byte) bool { return countMember(body) == 1 })
			return kSearchable, done, found

		case opEdit:
			payload, _ := json.Marshal(map[string]string{"text": o.text})
			status, _, err := l.c.do("PUT", "/documents/"+w.leafOIDs[o.target]+"/text", payload)
			acked := time.Now()
			ok := err == nil && status == 200
			ack(kEdit, dueAt, acked, ok)
			if !ok {
				return kVisible, acked, false
			}
			l.acked++
			l.textBytes += int64(len(o.text))
			l.lastEdit[o.target] = o.token
			done, found := l.probe(o.token, acked, func(body []byte) bool { return hasID(body, w.paraOIDs[o.target]) })
			return kVisible, done, found

		default: // opDelete
			if o.target >= len(l.docs) { // an earlier ingest of this lane was not acknowledged
				return kDelete, time.Now(), false
			}
			d := &l.docs[o.target]
			status, _, err := l.c.do("DELETE", "/documents/"+d.oid, nil)
			done := time.Now()
			if err != nil || status != 200 {
				return kDelete, done, false
			}
			d.deleted = true
			l.acked++
			return kDelete, done, true
		}
	}
}
