package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// conn is one HTTP/1.1 keep-alive connection to one server: the
// benchmark counts connections, so each client owns exactly one.
type conn struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
}

func dial(base string) *conn {
	return &conn{base: base, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends o and returns the status and the response body. The body
// aliases the connection's buffer and is valid until the next do.
func (c *conn) do(o op) (status int, body []byte, err error) {
	method, target, reqBody := o.request()
	var rd io.Reader
	if reqBody != nil {
		rd = bytes.NewReader(reqBody)
	}
	req, err := http.NewRequest(method, c.base+target, rd)
	if err != nil {
		return 0, nil, err
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

var scanBackend = []byte(`"backend":"scan"`)

// result is one request as the load generator saw it. Times are offsets
// from the start of the run (warm-up included).
type result struct {
	op     op
	target int           // which server answered: 0 leader, 1 follower
	due    time.Duration // open loop: when it should have been sent
	sent   time.Duration
	done   time.Duration
	free   bool // open loop: the connection was idle when the request fell due
	ok     bool // 200 and a complete body
	bytes  int
	scan   bool   // answered by the brute-force fallback
	keep   []byte // body copy, kept for 1 in oracleEvery requests
	err    string
}

// issued is the instant an open-loop request's latency counts from. A
// request that fell due while the previous one was still outstanding was
// held up by the system, so it counts from its due time and the stall is
// charged to everything queued behind it. One that found the connection
// idle counts from when it was actually sent: the gap before that is the
// load generator's own lateness (timer slack), reported as gen_late.
func (r *result) issued() time.Duration {
	if r.free {
		return r.sent
	}
	return r.due
}

// oracleEvery is the share of responses checked against brute force.
const oracleEvery = 50

// closedLoop drives one seeded op stream per connection against base for
// total, each connection sending its next request only when the previous
// one has completed. It returns every request, in per-connection order,
// with the body of every oracleEvery-th one sent after warm.
func closedLoop(base, workload string, seed int64, n, conns int, start time.Time, warm, total time.Duration) [][]result {
	out := make([][]result, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := dial(base)
			defer cn.close()
			gen := newOpGen(workload, seed, c, n)
			measured := 0
			for time.Since(start) < total {
				r := result{op: gen.next(), sent: time.Since(start)}
				status, body, err := cn.do(r.op)
				r.done = time.Since(start)
				keep := r.sent >= warm && measured%oracleEvery == 0
				if r.sent >= warm {
					measured++
				}
				r.finish(status, body, err, keep)
				out[c] = append(out[c], r)
			}
		}(c)
	}
	wg.Wait()
	return out
}

func (r *result) finish(status int, body []byte, err error, keep bool) {
	switch {
	case err != nil:
		r.err = err.Error()
	case status != http.StatusOK:
		r.err = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
	default:
		r.ok = true
		r.bytes = len(body)
		r.scan = bytes.Contains(body, scanBackend)
		if keep {
			r.keep = append([]byte(nil), body...)
		}
	}
}

// openLoop sends evs to base on their due times over one connection,
// whatever the server does: a request that falls due while the previous
// one is still outstanding goes out late and is still timed from its due
// time, so a stall is charged to every request queued behind it. onDone,
// when non-nil, sees each completed request before the next is sent.
func openLoop(base string, target int, evs []event, start time.Time, onDone func(*result, []byte)) []result {
	cn := dial(base)
	defer cn.close()
	out := make([]result, 0, len(evs))
	for _, ev := range evs {
		r := result{op: ev.op, target: target, due: ev.due}
		if wait := ev.due - time.Since(start); wait > 0 {
			r.free = true
			time.Sleep(wait)
		}
		r.sent = time.Since(start)
		status, body, err := cn.do(ev.op)
		r.done = time.Since(start)
		r.finish(status, body, err, false)
		if onDone != nil {
			onDone(&r, body)
		}
		out = append(out, r)
	}
	return out
}
