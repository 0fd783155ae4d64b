package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ncexplorer"
	"ncexplorer/internal/qcache"
	"ncexplorer/internal/server"
)

// feed: one ingesting node booted the way ncserver -data-dir boots
// (Save, then CheckpointTo), with generator-chosen watchlists. An open
// loop posts 16-doc batches to /v2/ingest at a fixed rate while a
// second open loop sends explore-mix queries at a fixed rate; a third,
// receive-only connection streams the broad watchlist's alerts over
// SSE. Writes run beside reads: every batch swaps the generation,
// strands result-cache entries and resets the engine's memos.
const (
	// queryRate is the query sender's fixed rate: a tenth of what the
	// node answers closed-loop, so queries measure service time plus
	// the stalls ingest causes, not a backlog of their own.
	queryRate = 1000
	// batchRate is the ingest sender's fixed rate (32 docs/s). Each batch
	// swaps the generation and its analysis takes both cores for a
	// while; at 10 batches/s a two-core node is past saturation with
	// queries beside it (query p50 grows from 0.5 to 2-3 ms, a backlog),
	// and at 4/s the query tail still swings by half from run to run.
	// Two batches a second keep 40 swaps and their merges in a 20 s
	// window while the figures repeat.
	batchRate = 2
	batchDocs = 16
	// lateAfter is how far behind schedule a send may start before it
	// counts as late.
	lateAfter = time.Millisecond
	// gridSize is the number of distinct queries compared against the
	// monolithic reference after the run.
	gridSize = 48
	// extraWatchlists is the number of generator-chosen watchlists
	// registered beside the broad one.
	extraWatchlists = 7
)

type feedSys struct {
	cfg   *config
	wl    *workload
	x     *ncexplorer.Explorer
	srv   *server.Server
	ln    *listener
	dir   string
	specs []ncexplorer.WatchlistSpec
	ids   []string
	broad string // the streamed watchlist's id
	cur   *cursor
	once  sync.Once

	passes   int
	batches  [][]ncexplorer.IngestArticle // every batch sent, by index
	acked    []int                        // batch indices in ack order
	ackedGen atomic.Uint64

	// SSE bookkeeping across passes.
	sseLast uint64
	sseData map[uint64][]byte

	// query bookkeeping for the workload properties.
	counts      []atomic.Int32
	hits, total atomic.Int64
	cache0      qcache.Stats // result-cache counters when the window opened
}

func newFeed(cfg *config, wl *workload, _ *result) (system, error) {
	x, err := ncexplorer.New(ncexplorer.Config{Scale: cfg.scale, Seed: worldSeed})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "feed-")
	if err != nil {
		return nil, err
	}
	if err := x.Save(dir); err != nil {
		return nil, err
	}
	x.CheckpointTo(dir)
	opts := ncserverOptions()
	opts.EnableIngest = true
	srv := server.New(x, opts)
	ln, err := serve(srv.Handler())
	if err != nil {
		return nil, err
	}
	f := &feedSys{cfg: cfg, wl: wl, x: x, srv: srv, ln: ln, dir: dir, cur: newCursor(1, wl),
		sseData: map[uint64][]byte{}, counts: make([]atomic.Int32, len(wl.specs))}
	f.specs = watchlistSpecs(wl)
	c := newClient()
	defer closeClient(c)
	for _, spec := range f.specs {
		body, _ := json.Marshal(spec)
		var buf bytes.Buffer
		status, _, err := post(c, ln.url+"/v2/watchlists", body, &buf)
		var wlResp struct {
			ID string `json:"id"`
		}
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("register watchlist: status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
		}
		if err == nil {
			err = json.Unmarshal(buf.Bytes(), &wlResp)
		}
		if err != nil {
			f.close()
			return nil, err
		}
		f.ids = append(f.ids, wlResp.ID)
	}
	f.broad = f.ids[0]
	f.ackedGen.Store(x.Generation())
	if err := firstQuery(ln.url, wl); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// watchlistSpecs chooses the watchlists from the generator: first a
// broad one on the broadest concept that has a broader ancestor (the
// graph's roots match nearly everything), then the concept patterns of
// the first distinct roll-ups.
func watchlistSpecs(wl *workload) []ncexplorer.WatchlistSpec {
	specs := []ncexplorer.WatchlistSpec{{Name: "broad", Concepts: []string{wl.broadest}}}
	for i := range wl.specs {
		if len(specs) > extraWatchlists {
			break
		}
		if s := &wl.specs[i]; s.op == "rollup" {
			specs = append(specs, ncexplorer.WatchlistSpec{Name: fmt.Sprintf("w%d", len(specs)), Concepts: s.concepts})
		}
	}
	return specs
}

// batchRec is one ingest batch's timeline.
type batchRec struct {
	idx             int
	gen             uint64
	due, send, ack  time.Time
	origin          time.Time // see origin
	ok              bool
	commitStart     time.Time // twin replay (traced passes)
	commitEnd, dura time.Time
	twinAlert       time.Time
}

func (f *feedSys) pass(p *pass) (*passOut, error) {
	f.passes++
	nBatches := int(batchRate*(p.cfg.warmup+p.cfg.window).Seconds()) + 1
	arts, err := f.x.SampleArticles(f.cfg.seed*1000+uint64(f.passes), nBatches*batchDocs)
	if err != nil {
		return nil, err
	}
	first := len(f.batches)
	for i := 0; i < nBatches; i++ {
		f.batches = append(f.batches, arts[i*batchDocs:(i+1)*batchDocs])
	}

	var tw *twin
	if p.tr != nil {
		if tw, err = f.newTwin(); err != nil {
			return nil, err
		}
		defer tw.close()
		p.tr.start()
	}
	st0 := f.x.Stats()
	proc0 := readProc()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sse := newSSE(f, p)
	sseDone := make(chan error, 1)
	go func() { sseDone <- sse.run(ctx) }()
	if err := sse.waitOpen(); err != nil {
		return nil, err
	}
	var direct *directSub
	if tw != nil {
		if direct, err = f.subscribe(f.x, f.sseLast); err != nil {
			return nil, err
		}
		defer direct.stop()
	}

	start := time.Now().Add(10 * time.Millisecond)
	warmEnd := start.Add(p.cfg.warmup)
	end := warmEnd.Add(p.cfg.window)
	inWindow := func(due time.Time) bool { return !due.Before(warmEnd) && due.Before(end) }
	out := &passOut{window: p.cfg.window}
	var recs []*batchRec
	var qs queryStats
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		recs = f.ingestLoop(p, tw, first, nBatches, start, end)
	}()
	go func() {
		defer wg.Done()
		qs = f.queryLoop(p, start, warmEnd, end)
	}()
	wg.Wait()
	proc1 := readProc()
	st1 := f.x.Stats()

	// Let the stream deliver every alert fired so far, then close it.
	wlInfo, _ := f.x.GetWatchlist(f.broad)
	deadline := time.Now().Add(5 * time.Second)
	for sse.last() < wlInfo.LastSeq && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-sseDone; err != nil {
		return nil, err
	}
	if missing := int64(wlInfo.LastSeq) - int64(sse.last()); missing > 0 {
		for i := int64(0); i < missing; i++ {
			p.res.op(false)
		}
	}
	if tw != nil {
		tw.wait()
		direct.stop()
		p.tr.stop()
	}

	out.query, out.queryDue = qs.lat, qs.due
	if n := len(qs.lat); n > 0 {
		// An open loop completes what it offers; the rate is taken over
		// the time the completions actually took.
		out.rps = float64(n) / (qs.lat[n-1].at + qs.lat[n-1].v/1e6)
	}
	out.late = qs.late
	out.lateSends = qs.lateSends
	for _, rec := range recs {
		if !rec.ok || !inWindow(rec.due) {
			continue
		}
		out.ack = append(out.ack, ms(rec.ack.Sub(rec.origin)))
		late := rec.send.Sub(rec.due)
		out.late = append(out.late, ms(late))
		if late > lateAfter {
			out.lateSends++
		}
		if at, ok := sse.firstByGen[rec.gen]; ok {
			out.alert = append(out.alert, ms(at.Sub(rec.origin)))
		}
		if tw != nil {
			f.traceBatch(p.tr, rec, sse, direct)
		}
	}
	// Both loops run through the warm-up, so resource use and stats
	// deltas cover the whole pass and are divided by its operations.
	out.ops = qs.sent + len(recs)
	out.proc = procSnap{cpu: proc1.cpu - proc0.cpu, allocB: proc1.allocB - proc0.allocB, gcs: proc1.gcs - proc0.gcs}
	if tw == nil {
		f.recordCounters(p.res, st0, st1)
	}
	return out, nil
}

// recordCounters turns public stats deltas into per-layer counters.
func (f *feedSys) recordCounters(r *result, a, b ncexplorer.Stats) {
	docs := float64(b.Ingest.Docs - a.Ingest.Docs)
	r.counters["core.merges"] = float64(b.Ingest.Merges - a.Ingest.Merges)
	r.counters["persist.bytes_per_doc"] = ratio(float64(b.Persist.BytesWritten-a.Persist.BytesWritten), docs)
	r.counters["persist.checkpoints_per_batch"] = ratio(float64(b.Persist.Checkpoints-a.Persist.Checkpoints),
		float64(b.Ingest.Batches-a.Ingest.Batches))
	r.counters["persist.checkpoint_errors"] = float64(b.Persist.CheckpointErrors - a.Persist.CheckpointErrors)
	r.counters["watch.alerts_fired"] = float64(b.Watch.AlertsFired - a.Watch.AlertsFired)
	r.counters["watch.alerts_dropped"] = float64(b.Watch.AlertsDropped - a.Watch.AlertsDropped)
	r.counters["core.cdr_hit_ratio"] = memoDelta(a.EngineCache.CDR, b.EngineCache.CDR)
	r.counters["core.match_hit_ratio"] = memoDelta(a.EngineCache.Match, b.EngineCache.Match)
	hr, ev := cacheDelta(f.cache0, f.srv.CacheStats())
	r.counters["qcache.hit_ratio"] = hr
	r.counters["qcache.evictions_per_kreq"] = ev
}

// ingestLoop sends batches first..first+n on schedule over one
// keep-alive connection and records each batch's timeline.
func (f *feedSys) ingestLoop(p *pass, tw *twin, first, n int, start, end time.Time) []*batchRec {
	c := newClient()
	defer closeClient(c)
	interval := time.Second / batchRate
	var recs []*batchRec
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			break
		}
		body, _ := json.Marshal(map[string]any{"articles": f.batches[first+i]})
		slept := sleepUntil(due)
		rec := &batchRec{idx: first + i, due: due, send: time.Now()}
		rec.origin = origin(due, rec.send, slept)
		status, _, err := post(c, f.ln.url+"/v2/ingest", body, &buf)
		rec.ack = time.Now()
		var res ncexplorer.IngestResult
		rec.ok = err == nil && status == http.StatusOK && json.Unmarshal(buf.Bytes(), &res) == nil &&
			res.Accepted == batchDocs
		p.res.op(rec.ok)
		if rec.ok {
			rec.gen = res.Generation
			f.acked = append(f.acked, rec.idx)
			f.ackedGen.Store(res.Generation)
			if tw != nil {
				tw.feed <- rec
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// sleepUntil waits for a send's due time and reports whether it had
// to wait.
func sleepUntil(due time.Time) bool {
	d := time.Until(due)
	if d > 0 {
		time.Sleep(d)
	}
	return d > 0
}

// origin is where an open-loop operation's latency is timed from. A
// send that is due while the sender is still busy with the previous
// answer is timed from its due time, so a stall counts against every
// request queued behind it. A send the sender had to wait for is timed
// from the moment it went out: the system was idle at the due time,
// and the timer's wake-up slack (about a millisecond) belongs to the
// generator, not the system; loadgen.late_p99_ms reports it.
func origin(due, send time.Time, slept bool) time.Time {
	if slept {
		return send
	}
	return due
}

// queryStats is what the query sender measured inside the window.
type queryStats struct {
	lat       []sample  // send → answer, µs
	due       []sample  // origin → answer, µs (see origin)
	late      []float64 // send − due, ms
	lateSends int
	sent      int // queries sent in the whole pass
}

// queryLoop sends explore-mix queries on schedule over one keep-alive
// connection. Each answer must come from a generation at least as new
// as the last batch acknowledged before the query was sent.
func (f *feedSys) queryLoop(p *pass, start, warmEnd, end time.Time) queryStats {
	var qs queryStats
	c := newClient()
	defer closeClient(c)
	interval := time.Second / queryRate
	var nocache *server.Server
	if p.tr != nil {
		nocache = server.New(f.x, noCache(ncserverOptions()))
	}
	var buf bytes.Buffer
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return qs
		}
		slept := sleepUntil(due)
		id := f.wl.seq[f.cur.pos[0]%len(f.wl.seq)]
		f.cur.pos[0]++
		s := &f.wl.specs[id]
		minGen := f.ackedGen.Load()
		send := time.Now()
		status, xcache, err := post(c, f.ln.url+s.path, s.body, &buf)
		recv := time.Now()
		ok := err == nil && status == http.StatusOK && generationOf(buf.Bytes()) >= minGen
		p.res.op(ok)
		qs.sent++
		f.counts[id].Add(1)
		f.total.Add(1)
		if xcache == "HIT" {
			f.hits.Add(1)
		}
		if due.Before(warmEnd) {
			continue
		}
		if len(qs.lat) == 0 {
			f.cache0 = f.srv.CacheStats()
		}
		origin := origin(due, send, slept)
		qs.lat = append(qs.lat, sample{send.Sub(warmEnd).Seconds(), us(recv.Sub(send))})
		qs.due = append(qs.due, sample{origin.Sub(warmEnd).Seconds(), us(recv.Sub(origin))})
		l := send.Sub(due)
		qs.late = append(qs.late, ms(l))
		if l > lateAfter {
			qs.lateSends++
		}
		if p.tr != nil && ok && len(qs.lat)%sampleEvery == 0 {
			hit := xcache == "HIT"
			p.tr.enqueue(func() {
				nodeReplay(p.tr, f.x, f.srv.Handler(), nocache.Handler(), s, origin, send, recv, hit)
			})
		}
	}
}

// generationOf reads the "generation" field of a query answer without
// decoding the rest; -1 marks a body without one.
func generationOf(body []byte) uint64 {
	const key = `"generation":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	g, _ := strconv.ParseUint(string(rest[:j]), 10, 64)
	return g
}

// sseStream reads the broad watchlist's alert stream.
type sseStream struct {
	f          *feedSys
	p          *pass
	open       chan error
	mu         sync.Mutex
	lastSeq    uint64
	firstByGen map[uint64]time.Time
	bySeq      map[uint64]time.Time
	received   int
}

func newSSE(f *feedSys, p *pass) *sseStream {
	return &sseStream{f: f, p: p, open: make(chan error, 1), lastSeq: f.sseLast,
		firstByGen: map[uint64]time.Time{}, bySeq: map[uint64]time.Time{}}
}

func (s *sseStream) waitOpen() error { return <-s.open }

func (s *sseStream) last() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// run streams alerts until ctx ends. Sequences must arrive gap-free;
// a gap counts each missing alert as a failed operation.
func (s *sseStream) run(ctx context.Context) error {
	url := fmt.Sprintf("%s/v2/watchlists/%s/events?after=%d", s.f.ln.url, s.f.broad, s.f.sseLast)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		s.open <- err
		return nil
	}
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		err = fmt.Errorf("event stream: status %d", resp.StatusCode)
	}
	s.open <- err
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && data != nil:
			s.event(data, time.Now())
			data = nil
		}
	}
	s.f.sseLast = s.last()
	return nil // the stream ends when ctx is cancelled
}

func (s *sseStream) event(data []byte, at time.Time) {
	var a struct {
		Seq        uint64 `json:"seq"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(data, &a); err != nil {
		s.p.res.op(false)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.received++
	if s.f.cfg.faults.dropAlert && s.received == 2 {
		return // a lost alert: the gap below must count it as failed
	}
	if a.Seq <= s.lastSeq {
		s.p.res.op(false) // a duplicate or out-of-order alert
		return
	}
	for missing := a.Seq - s.lastSeq - 1; missing > 0; missing-- {
		s.p.res.op(false)
	}
	s.p.res.op(true)
	s.lastSeq = a.Seq
	s.f.sseData[a.Seq] = data
	s.bySeq[a.Seq] = at
	if _, ok := s.firstByGen[a.Generation]; !ok {
		s.firstByGen[a.Generation] = at
	}
}

// directSub is an in-process subscription to the broad watchlist,
// recording when each alert reaches the subscriber.
type directSub struct {
	mu       sync.Mutex
	at       map[uint64]time.Time
	firstGen map[uint64]uint64 // generation → first seq
	quit     chan struct{}
	done     chan struct{}
	sub      *ncexplorer.WatchSubscription
	once     sync.Once
}

func (f *feedSys) subscribe(x *ncexplorer.Explorer, after uint64) (*directSub, error) {
	sub, err := x.WatchSubscribe(f.broad, after)
	if err != nil {
		return nil, err
	}
	d := &directSub{at: map[uint64]time.Time{}, firstGen: map[uint64]uint64{},
		quit: make(chan struct{}), done: make(chan struct{}), sub: sub}
	go func() {
		defer close(d.done)
		for {
			select {
			case <-d.quit:
				return
			case a, ok := <-sub.C:
				if !ok {
					return
				}
				now := time.Now()
				d.mu.Lock()
				d.at[a.Seq] = now
				if _, seen := d.firstGen[a.Generation]; !seen {
					d.firstGen[a.Generation] = a.Seq
				}
				d.mu.Unlock()
			}
		}
	}()
	return d, nil
}

func (d *directSub) stop() {
	d.once.Do(func() {
		close(d.quit)
		<-d.done
		d.sub.Cancel()
	})
}

// firstOfGen returns when the generation's first alert arrived.
func (d *directSub) firstOfGen(gen uint64) (time.Time, uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	seq, ok := d.firstGen[gen]
	return d.at[seq], seq, ok
}

// twin is an identical node outside the load: traced passes ingest
// every acknowledged batch into it too, in order, timing the layers a
// batch crosses (commit, durable wait, watch delivery) without
// ingesting the batch into the system under test twice.
type twin struct {
	x    *ncexplorer.Explorer
	dir  string
	feed chan *batchRec
	done chan struct{}
	sub  *directSub
}

func (f *feedSys) newTwin() (*twin, error) {
	x, err := ncexplorer.New(ncexplorer.Config{Scale: f.cfg.scale, Seed: worldSeed})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(f.cfg.workdir, "twin-")
	if err != nil {
		return nil, err
	}
	if err := x.Save(dir); err != nil {
		return nil, err
	}
	x.CheckpointTo(dir)
	for _, spec := range f.specs {
		if _, err := x.RegisterWatchlist(spec); err != nil {
			return nil, err
		}
	}
	for _, idx := range f.acked {
		res, err := x.Ingest(context.Background(), f.batches[idx])
		if err != nil {
			return nil, err
		}
		x.WaitDurable(res.PersistSeq)
	}
	wl, _ := x.GetWatchlist(f.broad)
	sub, err := f.subscribe(x, wl.LastSeq)
	if err != nil {
		return nil, err
	}
	// The feed holds at most the batches one pass sends.
	t := &twin{x: x, dir: dir, feed: make(chan *batchRec, 1024), done: make(chan struct{}), sub: sub}
	go func() {
		defer close(t.done)
		for rec := range t.feed {
			rec.commitStart = time.Now()
			res, err := x.Ingest(context.Background(), f.batches[rec.idx])
			rec.commitEnd = time.Now()
			if err != nil {
				continue
			}
			x.WaitDurable(res.PersistSeq)
			rec.dura = time.Now()
			deadline := time.Now().Add(time.Second)
			for time.Now().Before(deadline) {
				if at, _, ok := sub.firstOfGen(res.Generation); ok {
					rec.twinAlert = at
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	return t, nil
}

// wait lets the twin finish the batches it was handed.
func (t *twin) wait() {
	if t.feed != nil {
		close(t.feed)
		<-t.done
		t.feed = nil
	}
}

func (t *twin) close() {
	t.wait()
	t.sub.stop()
	t.x.Quiesce()
	os.RemoveAll(t.dir)
}

// traceBatch records one batch's ingest and alert trees.
func (f *feedSys) traceBatch(t *tracer, rec *batchRec, sse *sseStream, direct *directSub) {
	if rec.commitStart.IsZero() {
		return
	}
	req := t.newReq()
	root := t.add(req, -1, "ingest", rec.origin, rec.ack)
	t.add(req, root, "loadgen.late", rec.origin, rec.send)
	h := t.add(req, root, "ingest.http", rec.send, rec.ack)
	t.add(req, h, "core.ingest_commit", rec.commitStart, rec.commitEnd)
	t.add(req, h, "core.durable_wait", rec.commitEnd, rec.dura)

	sseAt, ok := sse.firstByGen[rec.gen]
	if !ok {
		return
	}
	req = t.newReq()
	root = t.add(req, -1, "alert", rec.origin, sseAt)
	t.add(req, root, "loadgen.late", rec.origin, rec.send)
	// Watchlists are evaluated inside the commit, so a batch's first
	// alert reaches subscribers before Ingest returns: delivery is timed
	// from the Ingest call.
	if !rec.twinAlert.IsZero() {
		t.add(req, root, "watch.delivery", rec.commitStart, rec.twinAlert)
	}
	if at, seq, ok := direct.firstOfGen(rec.gen); ok {
		t.add(req, root, "server.sse", at, sse.bySeq[seq])
	}
}

func (f *feedSys) verify(r *result) error {
	f.close()
	check := func(ok bool) { r.op(ok) }

	// The stream must equal the retained alert tail.
	replay, _, err := f.x.WatchReplay(f.broad, 0)
	if err != nil {
		return err
	}
	for _, a := range replay {
		b, _ := json.Marshal(a)
		check(bytes.Equal(b, f.sseData[a.Seq]))
	}

	// The final grid and every watchlist's alerts, from the system
	// under test.
	grid := make([][]byte, min(gridSize, len(f.wl.specs)))
	h := f.srv.Handler()
	for i := range grid {
		grid[i] = serveInProcess(h, &f.wl.specs[i]).Body.Bytes()
	}
	alerts, lastSeqs := f.alertsOf(f.x)

	refs := make([]any, len(f.wl.specs))
	for i := range f.wl.specs {
		if f.counts[i].Load() > 0 {
			_, refs[i], _ = facadeBody(f.x, &f.wl.specs[i])
		}
	}
	recordProperties(r, f.wl, func(i int) int { return int(f.counts[i].Load()) },
		f.hits.Load(), f.total.Load(), refs)
	lastGen := f.ackedGen.Load()
	f.x, f.srv = nil, nil
	runtime.GC()

	// The data dir reopens at the last acknowledged generation.
	y, err := ncexplorer.Open(f.dir, ncexplorer.OpenOptions{})
	check(err == nil && y.Generation() == lastGen)
	y = nil
	runtime.GC()

	// A monolithic reference that ingested the same batches in order.
	ref, err := ncexplorer.New(ncexplorer.Config{Scale: f.cfg.scale, Seed: worldSeed})
	if err != nil {
		return err
	}
	for i, spec := range f.specs {
		wl, err := ref.RegisterWatchlist(spec)
		check(err == nil && wl.ID == f.ids[i])
	}
	for _, idx := range f.acked {
		if _, err := ref.Ingest(context.Background(), f.batches[idx]); err != nil {
			return err
		}
	}
	ref.Quiesce()
	check(ref.Generation() == lastGen)
	rh := server.New(ref, ncserverOptions()).Handler()
	for i := range grid {
		check(bytes.Equal(grid[i], serveInProcess(rh, &f.wl.specs[i]).Body.Bytes()))
	}
	refAlerts, refLast := f.alertsOf(ref)
	for i := range alerts {
		check(bytes.Equal(alerts[i], refAlerts[i]) && lastSeqs[i] == refLast[i])
	}
	return nil
}

// alertsOf encodes every watchlist's retained alerts and last sequence.
func (f *feedSys) alertsOf(x *ncexplorer.Explorer) ([][]byte, []uint64) {
	var out [][]byte
	var last []uint64
	for _, id := range f.ids {
		alerts, _, _ := x.WatchReplay(id, 0)
		b, _ := json.Marshal(alerts)
		out = append(out, b)
		wl, _ := x.GetWatchlist(id)
		last = append(last, wl.LastSeq)
	}
	return out, last
}

func (f *feedSys) close() {
	f.once.Do(func() {
		f.ln.close()
		if f.x != nil {
			f.x.Quiesce()
		}
	})
}
