package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// result is what one client observed for one op.
type result struct {
	op     op
	start  time.Time
	lat    time.Duration
	status int
	bytes  int
	// body is kept for the replies the oracle recomputes after the window
	// (a sample of the analytic ones) and for refusals, to print them.
	body []byte
	// err is a transport error or, for the cheap classes that are checked
	// as they arrive, the oracle's objection.
	err error
}

// analytic reports whether recomputing the class's answer costs a table
// scan. Those are checked after the window, one in verifyEvery, from the
// kept reply; every other answer is checked when it arrives, after its
// latency was taken, and its body dropped.
func (c class) analytic() bool {
	switch c {
	case clsScanAgg, clsTopN, clsGroupBy, clsJoin, clsStream:
		return true
	}
	return false
}

const verifyEvery = 4

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
	}}
}

// queryRequest is the route and JSON body that carry op o.
func queryRequest(o op) (path string, payload []byte) {
	path = "/v1/query"
	if o.class == clsStream {
		path += "?stream=1"
	}
	payload, _ = json.Marshal(map[string]string{"sql": o.sql}) // a string map always encodes
	return path, payload
}

// send posts one statement and waits for the whole reply: the closed
// loop's unit of work.
func send(ctx context.Context, hc *http.Client, baseURL string, o op) result {
	path, payload := queryRequest(o)
	start := time.Now()
	res := result{op: o, start: start}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+path, bytes.NewReader(payload))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.lat = time.Since(start)
	res.status, res.bytes, res.err, res.body = resp.StatusCode, len(body), err, body
	return res
}

// runClients drives one closed-loop client per next function until its
// function reports no more ops, the deadline passes or ctx ends, and
// returns each client's results in send order.
func (s *session) runClients(ctx context.Context, deadline time.Time, next []func() (op, bool)) [][]result {
	out := make([][]result, len(next))
	var wg sync.WaitGroup
	for c := range next {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ctx.Err() == nil && time.Now().Before(deadline); i++ {
				o, ok := next[c]()
				if !ok {
					return
				}
				res := send(ctx, s.hc, s.in.url, o)
				switch ok := res.err == nil && res.status/100 == 2; {
				case ok && !o.class.analytic():
					res.err, res.body = s.orc.check(s.in.db, res), nil
				case ok && i%verifyEvery != 0:
					res.body = nil
				}
				out[c] = append(out[c], res)
			}
		}()
	}
	wg.Wait()
	return out
}

// adminPost issues one admin request and returns its latency.
func adminPost(ctx context.Context, hc *http.Client, url string) (time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	return time.Since(start), err
}

// getBody fetches one GET endpoint.
func getBody(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, err
}
