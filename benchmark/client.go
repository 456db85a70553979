package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// conn is one persistent HTTP/1.1 connection to the server. The load
// generator shares two cores with the program under test, so it writes
// requests by hand and parses replies on its own goroutine instead of
// going through http.Transport's per-connection goroutine pair.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  bytes.Buffer
	body bytes.Buffer
}

func newConn(addr string) *conn { return &conn{addr: addr} }

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one request and reads the whole reply body. The returned
// slice is valid until the next call. A broken connection is dropped,
// so the next call dials afresh (the server is killed and restarted
// under some workloads).
func (c *conn) do(method, path string, payload []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 2*time.Second)
		if err != nil {
			return 0, nil, err
		}
		c.c = nc
		c.br = bufio.NewReaderSize(nc, 64<<10)
	}
	c.req.Reset()
	c.req.WriteString(method)
	c.req.WriteByte(' ')
	c.req.WriteString(path)
	c.req.WriteString(" HTTP/1.1\r\nHost: bench\r\n")
	if payload != nil {
		c.req.WriteString("Content-Type: application/json\r\nContent-Length: ")
		c.req.WriteString(strconv.Itoa(len(payload)))
		c.req.WriteString("\r\n")
	}
	c.req.WriteString("\r\n")
	c.req.Write(payload)
	c.c.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := c.c.Write(c.req.Bytes()); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// doJSON sends v as a JSON body and decodes the reply into out (nil:
// discard). Any status outside 2xx is an error carrying the body.
func (c *conn) doJSON(method, path string, v, out any) error {
	var payload []byte
	if v != nil {
		var err error
		if payload, err = json.Marshal(v); err != nil {
			return err
		}
	}
	status, body, err := c.do(method, path, payload)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status < 200 || status > 299 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(body))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s %s: decode reply: %w", method, path, err)
	}
	return nil
}

// searchPath renders the search request line for an IRS query.
func searchPath(coll, q string, limit int) string {
	return "/collections/" + coll + "/search?q=" + url.QueryEscape(q) + "&limit=" + strconv.Itoa(limit)
}

type searchHit struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

type searchReply struct {
	Results []searchHit `json:"results"`
	Count   int         `json:"count"`
	Cached  bool        `json:"cached"`
}

type queryReply struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Count   int        `json:"count"`
	Cached  bool       `json:"cached"`
}

func (c *conn) search(coll, q string, limit int) (*searchReply, error) {
	var r searchReply
	if err := c.doJSON("GET", searchPath(coll, q, limit), nil, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func (c *conn) query(stmt string) (*queryReply, error) {
	var r queryReply
	if err := c.doJSON("POST", "/query", map[string]string{"query": stmt}, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// arrayMember returns the raw bytes of the array-valued member key of
// a JSON object reply ("results" of a search, "rows" of a query), found
// by bracket matching so that neither member order nor the volatile
// members ("cached", "elapsed_ms") matter. Two replies to one request
// over unchanged data must agree on it byte for byte, which is how a
// cached reply is compared with its uncached twin without paying a full
// decode per request on the generator's cores.
func arrayMember(body []byte, key string) []byte {
	i := bytes.LastIndex(body, []byte(`"`+key+`":[`))
	if i < 0 {
		return nil
	}
	start := i + len(key) + 3
	depth, inString := 0, false
	for j := start; j < len(body); j++ {
		switch c := body[j]; {
		case inString:
			if c == '\\' {
				j++
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == '[':
			depth++
		case c == ']':
			depth--
			if depth == 0 {
				return body[start : j+1]
			}
		}
	}
	return nil
}

// hasID reports whether a search reply lists the object id among its
// results.
func hasID(body []byte, oid string) bool {
	return bytes.Contains(arrayMember(body, "results"), []byte(`"id":"`+oid+`"`))
}
