package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Tracing from outside the program. For a sampled request the
// benchmark replays the same request at each layer boundary — the
// in-process handler, the facade, the engine, the encoder, each shard —
// and records every replay as a span. Spans of one request share a
// request id; a span's parent is the layer that calls it. Spans stay in
// memory and are written as JSON lines when the run ends.
//
// Replays run after the measured call, so a child does not sit inside
// its parent's interval in time; a span's self time is its duration
// minus the summed durations of its children, floored at zero.

// span is one timed interval of a sampled request.
type span struct {
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the request's root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// maxTraced caps the sampled requests a pass keeps.
const maxTraced = 20000

type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	vals    map[string][]float64
	reqs    int64
	dropped int
	work    chan func()
	done    chan struct{}
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), vals: map[string][]float64{}}
}

// start launches the replay worker; queued replays run one at a time,
// off the senders' goroutines, so a sender is never held up by them.
func (t *tracer) start() {
	// The queue absorbs bursts of samples while one replay runs; when it
	// is full the sample is dropped and counted.
	t.work = make(chan func(), 256)
	t.done = make(chan struct{})
	go func() {
		defer close(t.done)
		for f := range t.work {
			f()
		}
	}()
}

// stop waits for every queued replay to finish.
func (t *tracer) stop() {
	close(t.work)
	<-t.done
}

// enqueue hands a replay to the worker, or drops it if the queue is
// full or the sample cap is reached.
func (t *tracer) enqueue(f func()) {
	t.mu.Lock()
	full := t.reqs >= maxTraced
	t.mu.Unlock()
	if full {
		return
	}
	select {
	case t.work <- f:
	default:
		t.mu.Lock()
		t.dropped++
		t.mu.Unlock()
	}
}

// newReq allocates a request id.
func (t *tracer) newReq() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// add records a span and returns its id for use as a parent. An end
// before the start (two clocks read on different goroutines) records
// an empty span.
func (t *tracer) add(req int64, parent int, name string, start, end time.Time) int {
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// value records a sampled per-request quantity that is not a time.
func (t *tracer) value(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.vals[name] = append(t.vals[name], v)
}

// timed runs f and records it as a span.
func (t *tracer) timed(req int64, parent int, name string, f func()) int {
	start := time.Now()
	f()
	return t.add(req, parent, name, start, time.Now())
}

// layerTimes is the per-name view of the spans: durations and self
// times in µs, plus the summed self time per request root name.
type layerTimes struct {
	dur  map[string][]float64
	self map[string][]float64
	// roots maps a root span name to its durations, and paths maps it
	// to the self times of each layer found in its trees (for the
	// self-time sum check).
	roots map[string][]float64
	paths map[string]map[string][]float64
}

// derive computes durations and self times from the recorded spans.
func (t *tracer) derive() *layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := &layerTimes{dur: map[string][]float64{}, self: map[string][]float64{},
		roots: map[string][]float64{}, paths: map[string]map[string][]float64{}}
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	rootOf := make([]int, len(t.spans))
	for i, s := range t.spans {
		d := s.End - s.Start
		self := max(d-childSum[i], 0)
		lt.dur[s.Name] = append(lt.dur[s.Name], float64(d)/1e3)
		lt.self[s.Name] = append(lt.self[s.Name], float64(self)/1e3)
		if s.Parent < 0 {
			rootOf[i] = i
			lt.roots[s.Name] = append(lt.roots[s.Name], float64(d)/1e3)
		} else {
			rootOf[i] = rootOf[s.Parent]
		}
		root := t.spans[rootOf[i]].Name
		if lt.paths[root] == nil {
			lt.paths[root] = map[string][]float64{}
		}
		lt.paths[root][s.Name] = append(lt.paths[root][s.Name], float64(self)/1e3)
	}
	return lt
}

// selfSumRatio checks a blocking path: the summed per-layer median
// self times of the trees under root, over the root's median duration.
// Layers absent from a request count as zero for it.
func (lt *layerTimes) selfSumRatio(root string) float64 {
	n := len(lt.roots[root])
	if n == 0 {
		return 0
	}
	sum := 0.0
	for _, selfs := range lt.paths[root] {
		xs := append([]float64(nil), selfs...)
		// pad to the root's sample count: a layer a request skipped
		// contributes no self time to it
		for len(xs) < n {
			xs = append(xs, 0)
		}
		sum += median(xs)
	}
	return ratio(sum, median(append([]float64(nil), lt.roots[root]...)))
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
