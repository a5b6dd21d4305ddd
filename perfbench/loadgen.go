package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator. Unlike cmd/serveload it drains every response
// body, keeps one keep-alive connection per client, stops the clock
// at the last response byte, counts open-loop latency from the time a
// request was due rather than sent, and reports how late it ran.

// client is one load-generating connection to the server under test.
type client struct {
	hc  *http.Client
	url string
}

// newClient builds a client that holds at most one connection, so a
// run opens one TCP connection per client; dials counts the opens.
func newClient(url string, dials *atomic.Int64) *client {
	d := &net.Dialer{}
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, url: url}
}

// post sends one document and reads the response to its last byte.
func (c *client) post(doc []byte) (status int, body []byte, err error) {
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(doc))
	if err != nil {
		return 0, nil, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// sample is one request as the generator saw it.
type sample struct {
	doc    int // index of the document sent
	status int
	body   []byte
	err    error
	lat    time.Duration // due (open loop) or send (closed loop) to last byte
	late   time.Duration // send minus due; open loop only
}

func (s sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// openLoop offers n requests at a fixed rate: request i is due at
// start + i/rate and goes out on whichever client is free first.
// docOf maps a request number to the document to send.
func openLoop(clients []*client, docs [][]byte, docOf func(i int) int, rate float64, n int) []sample {
	period := time.Duration(float64(time.Second) / rate)
	out := make([]sample, n)
	var next atomic.Int64
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * period)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				d := docOf(i)
				status, body, err := c.post(docs[d])
				out[i] = sample{doc: d, status: status, body: body, err: err,
					lat: time.Since(due), late: sent.Sub(due)}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// closedRound sends the documents order[0..] with every client
// waiting for its reply before sending again, and returns the samples
// and the round's wall time.
func closedRound(clients []*client, docs [][]byte, order []int) ([]sample, time.Duration) {
	out := make([]sample, len(order))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				sent := time.Now()
				status, body, err := c.post(docs[order[i]])
				out[i] = sample{doc: order[i], status: status, body: body, err: err, lat: time.Since(sent)}
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// latencies returns the latencies of samples in milliseconds; a failed
// request counts as missing every latency limit (+Inf).
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		if s.ok() {
			out[i] = ms(s.lat)
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func describe(s sample) string {
	if s.err != nil {
		return fmt.Sprintf("transport error: %v", s.err)
	}
	return fmt.Sprintf("status %d: %.200s", s.status, s.body)
}
