package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// result accumulates the operation counts and workload properties of
// a whole run.
type result struct {
	attempted atomic.Int64
	failed    atomic.Int64
	props     map[string]float64
	// counters holds layer counters read through public stats calls
	// during the untraced pass (per-layer output only).
	counters map[string]float64
}

func newResult() *result {
	return &result{props: map[string]float64{}, counters: map[string]float64{}}
}

// op records one attempted operation and whether it failed.
func (r *result) op(ok bool) {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
	}
}

// pass is one pass's settings; tr is nil for an untraced pass.
type pass struct {
	cfg *config
	res *result
	tr  *tracer
}

// sample is one timed operation: when it started, in seconds since
// the window opened, and its value.
type sample struct{ at, v float64 }

// passOut is what one pass measured inside its window.
type passOut struct {
	window    time.Duration
	query     []sample  // query latency, µs
	queryDue  []sample  // feed: query latency from the due time, µs
	rps       float64   // completed queries per second; 0: use the slice rate
	ack       []float64 // feed: due → durable ingest ack, ms
	alert     []float64 // feed: due → alert read off SSE, ms
	late      []float64 // feed: send − due over both senders, ms
	lateSends int
	proc      procSnap // process resource use while ops ran
	ops       int      // operations behind proc
}

// listener is a loopback HTTP server around a handler, with the
// timeouts ncserver and ncrouter configure.
type listener struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &listener{
		hs: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed after close
	}()
	return s, nil
}

// close drains the listener and waits for its serve loop to exit.
func (s *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close() // the drain timed out: cut the remaining connections
	}
	<-s.done
}

// newClient returns a client with its own keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// post sends one JSON request and reads the whole answer into buf.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, string, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), err
}

// firstQuery answers the set-up's "serves its first request" mark.
func firstQuery(base string, wl *workload) error {
	c := newClient()
	defer closeClient(c)
	s := &wl.specs[wl.seq[0]]
	var buf bytes.Buffer
	status, _, err := post(c, base+s.path, s.body, &buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("first query: status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// loopHooks customise a closed loop: check validates one answer,
// onWindow runs once when the measured window opens, and sample
// (traced passes only) receives a sampled request for replay.
type loopHooks struct {
	check    func(spec int32, status int, xcache string, body []byte) bool
	onWindow func()
	sample   func(spec int32, start, end time.Time, xcache string)
}

// cursor keeps each client's position in the request stream across
// passes, so a later pass continues the stream instead of repeating it.
type cursor struct{ pos []int }

func newCursor(clients int, wl *workload) *cursor {
	c := &cursor{pos: make([]int, clients)}
	for i := range c.pos {
		c.pos[i] = i * len(wl.seq) / clients
	}
	return c
}

// sampleEvery is the traced-pass sampling stride per client.
const sampleEvery = 8

// closedLoop runs one client per cursor position, each sending its
// next request only after the previous answer, for the warm-up and
// then the measured window.
func closedLoop(p *pass, base string, wl *workload, cur *cursor, h loopHooks) *passOut {
	out := &passOut{window: p.cfg.window}
	warmEnd := time.Now().Add(p.cfg.warmup)
	end := warmEnd.Add(p.cfg.window)
	lats := make([][]sample, len(cur.pos))
	var before procSnap
	var startOnce sync.Once
	var wg sync.WaitGroup
	for c := range cur.pos {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer closeClient(client)
			var buf bytes.Buffer
			n := 0
			for {
				id := wl.seq[cur.pos[c]%len(wl.seq)]
				cur.pos[c]++
				s := &wl.specs[id]
				t0 := time.Now()
				if t0.After(end) {
					return
				}
				inWindow := !t0.Before(warmEnd)
				if inWindow {
					startOnce.Do(func() {
						if h.onWindow != nil {
							h.onWindow()
						}
						before = readProc()
					})
				}
				status, xcache, err := post(client, base+s.path, s.body, &buf)
				t1 := time.Now()
				ok := err == nil && h.check(id, status, xcache, buf.Bytes())
				p.res.op(ok)
				if !inWindow {
					continue
				}
				lats[c] = append(lats[c], sample{t0.Sub(warmEnd).Seconds(), us(t1.Sub(t0))})
				n++
				if p.tr != nil && ok && n%sampleEvery == 0 {
					h.sample(id, t0, t1, xcache)
				}
			}
		}(c)
	}
	wg.Wait()
	after := readProc()
	out.proc = procSnap{cpu: after.cpu - before.cpu, allocB: after.allocB - before.allocB, gcs: after.gcs - before.gcs}
	for _, l := range lats {
		out.query = append(out.query, l...)
	}
	out.ops = len(out.query)
	return out
}
