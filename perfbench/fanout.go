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

	"ncexplorer"
	"ncexplorer/internal/cluster"
	"ncexplorer/internal/core"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/server"
)

// fanout: the explore request stream sent through cluster.Router over
// two doc-disjoint shards, each a leader-only ncserver node with the
// internal scatter surface on and statistics synced once. It measures
// the scatter, the per-shard round trips, the exact merge and the
// re-encode — a path explore never touches.
type fanoutSys struct {
	cfg    *config
	wl     *workload
	world  *ncexplorer.QueryWorld
	shards []*ncexplorer.Explorer
	srvs   []*server.Server
	lns    []*listener
	rt     *cluster.Router
	ln     *listener
	cur    *cursor
	checks *bodyChecks
	once   sync.Once
	// hitShare is the shards' result-cache hit share in the untraced
	// window (the router itself caches nothing).
	hitShare float64
}

const shardCount = 2

func newFanout(cfg *config, wl *workload, _ *result) (system, error) {
	f := &fanoutSys{cfg: cfg, wl: wl, cur: newCursor(2, wl), checks: newBodyChecks(wl, cfg.faults)}
	var err error
	if f.world, err = ncexplorer.NewQueryWorld(cfg.scale, worldSeed); err != nil {
		return nil, err
	}
	urls := make([][]string, shardCount)
	for i := 0; i < shardCount; i++ {
		x, err := ncexplorer.New(ncexplorer.Config{Scale: cfg.scale, Seed: worldSeed, Shard: i, ShardCount: shardCount})
		if err != nil {
			f.close()
			return nil, err
		}
		opts := ncserverOptions()
		opts.EnableCluster = true
		srv := server.New(x, opts)
		ln, err := serve(srv.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		f.shards, f.srvs, f.lns = append(f.shards, x), append(f.srvs, srv), append(f.lns, ln)
		urls[i] = []string{ln.url}
	}
	f.rt = &cluster.Router{World: f.world, Shards: urls, Timeout: 10 * time.Second, MaxK: 100}
	if err := f.rt.SyncStats(context.Background()); err != nil {
		f.close()
		return nil, err
	}
	if f.ln, err = serve(f.rt.Handler()); err != nil {
		f.close()
		return nil, err
	}
	if err := firstQuery(f.ln.url, wl); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fanoutSys) shardCache() (hits, lookups int64) {
	for _, s := range f.srvs {
		st := s.CacheStats()
		hits += st.Hits
		lookups += st.Hits + st.Misses + st.Coalesced
	}
	return hits, lookups
}

func (f *fanoutSys) pass(p *pass) (*passOut, error) {
	var h0, l0 int64
	hooks := loopHooks{check: f.checks.check, onWindow: func() { h0, l0 = f.shardCache() }}
	var rp *routerReplay
	if p.tr != nil {
		var err error
		if rp, err = f.newRouterReplay(); err != nil {
			return nil, err
		}
		defer rp.close()
		p.tr.start()
		hooks.sample = func(id int32, start, end time.Time, _ string) {
			s := &f.wl.specs[id]
			p.tr.enqueue(func() { rp.replay(p.tr, s, start, end) })
		}
	}
	out := closedLoop(p, f.ln.url, f.wl, f.cur, hooks)
	if p.tr != nil {
		p.tr.stop()
		return out, nil
	}
	h1, l1 := f.shardCache()
	f.hitShare = ratio(float64(h1-h0), float64(l1-l0))
	p.res.counters["router.shard_hit_ratio"] = f.hitShare
	return out, nil
}

// routerReplay replays sampled fan-out queries against no-cache twins
// of the shard servers (same explorers), so a replay pays the shard
// work the measured request may have paid.
type routerReplay struct {
	f      *fanoutSys
	lns    []*listener
	rt     *cluster.Router
	client *http.Client
}

func (f *fanoutSys) newRouterReplay() (*routerReplay, error) {
	rp := &routerReplay{f: f, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	urls := make([][]string, len(f.shards))
	for i, x := range f.shards {
		opts := noCache(ncserverOptions())
		opts.EnableCluster = true
		ln, err := serve(server.New(x, opts).Handler())
		if err != nil {
			rp.close()
			return nil, err
		}
		rp.lns = append(rp.lns, ln)
		urls[i] = []string{ln.url}
	}
	rp.rt = &cluster.Router{World: f.world, Shards: urls, Timeout: 10 * time.Second, MaxK: 100, Client: rp.client}
	return rp, nil
}

func (rp *routerReplay) close() {
	rp.client.CloseIdleConnections()
	for _, ln := range rp.lns {
		ln.close()
	}
}

// shardRequest mirrors the router's internal scatter body for the
// drill-down phases.
type shardRequest struct {
	Concepts  []string              `json:"concepts"`
	Shortlist []kg.NodeID           `json:"shortlist,omitempty"`
	Time      *ncexplorer.TimeRange `json:"time_range,omitempty"`
}

// scatter POSTs body to every shard at once and returns the slowest
// round trip; answers decode into outs[i] when outs is not nil.
func (rp *routerReplay) scatter(path string, body any, outs []any) (time.Duration, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	rtts := make([]time.Duration, len(rp.lns))
	errs := make([]error, len(rp.lns))
	var wg sync.WaitGroup
	for i, ln := range rp.lns {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			start := time.Now()
			resp, err := rp.client.Post(url+path, "application/json", bytes.NewReader(payload))
			if err != nil {
				errs[i] = err
				return
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			rtts[i] = time.Since(start)
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("%s: status %d", path, resp.StatusCode)
			}
			if err == nil && outs != nil {
				err = json.Unmarshal(b, outs[i])
			}
			errs[i] = err
		}(i, ln.url)
	}
	wg.Wait()
	slowest := time.Duration(0)
	for i := range rtts {
		if errs[i] != nil {
			return 0, errs[i]
		}
		slowest = max(slowest, rtts[i])
	}
	return slowest, nil
}

// replay records a fan-out query's tree: the router handler in-process,
// under it the slowest shard round trip per scatter phase and the
// re-encode of the merged answer.
func (rp *routerReplay) replay(t *tracer, s *spec, start, end time.Time) {
	req := t.newReq()
	root := t.add(req, -1, "query", start, end)
	var rec []byte
	hid := t.timed(req, root, "router.handler", func() { rec = serveInProcess(rp.rt.Handler(), s).Body.Bytes() })
	concepts := ncexplorer.CanonicalConcepts(s.concepts)
	var shards time.Duration
	var res any
	if s.op == "rollup" {
		body := ncexplorer.RollUpRequest{Concepts: concepts, K: pageK + s.offset,
			Time: s.time, GroupBy: s.groupBy, Explain: true}
		d, err := rp.scatter("/internal/query/rollup", body, nil)
		if err != nil {
			return
		}
		shards = d
		var r ncexplorer.RollUpResult
		_ = json.Unmarshal(rec, &r)
		res = r
	} else {
		parts := make([]core.DrillDownPartial, len(rp.lns))
		outs := make([]any, len(parts))
		for i := range parts {
			outs[i] = &parts[i]
		}
		d, err := rp.scatter("/internal/query/drilldown-partials", shardRequest{Concepts: concepts, Time: s.time}, outs)
		if err != nil {
			return
		}
		shards = d
		opts := core.DrillDownOptions{K: pageK, Offset: s.offset}
		_, err = core.MergeDrillDown(rp.f.world.Graph(), opts, parts, func(short []kg.NodeID) ([][]kg.NodeID, error) {
			divs := make([]core.DiversityPartial, len(rp.lns))
			outs := make([]any, len(divs))
			for i := range divs {
				outs[i] = &divs[i]
			}
			d, err := rp.scatter("/internal/query/diversity",
				shardRequest{Concepts: concepts, Shortlist: short, Time: s.time}, outs)
			shards += d
			sets := make([][]kg.NodeID, len(short))
			for _, dv := range divs {
				for si, set := range dv.Sets {
					sets[si] = append(sets[si], set...)
				}
			}
			return sets, err
		})
		if err != nil {
			return
		}
		var r ncexplorer.DrillDownResult
		_ = json.Unmarshal(rec, &r)
		res = r
	}
	// The shard phases ran after the router replay; they are laid out
	// as one child span starting where the router span starts.
	t.mu.Lock()
	hs := t.spans[hid]
	t.mu.Unlock()
	t.add(req, hid, "router.shards", t.t0.Add(time.Duration(hs.Start)), t.t0.Add(time.Duration(hs.Start)+shards))
	var b []byte
	t.timed(req, hid, "server.encode", func() { b, _ = json.Marshal(res) })
	t.value("server.resp_kb", float64(len(b))/1024)
}

func (f *fanoutSys) verify(r *result) error {
	f.close()
	f.shards, f.srvs = nil, nil
	mono, err := ncexplorer.New(ncexplorer.Config{Scale: f.cfg.scale, Seed: worldSeed})
	if err != nil {
		return err
	}
	h := server.New(mono, ncserverOptions()).Handler()
	refs := f.checks.verify(r, f.wl, func(s *spec) ([]byte, any) {
		body := serveInProcess(h, s).Body.Bytes()
		_, res, _ := facadeBody(mono, s)
		return body, res
	})
	recordProperties(r, f.wl, func(i int) int { return int(f.checks.count[i].Load()) },
		f.checks.hits.Load(), f.checks.total.Load(), refs)
	r.props["hit_share"] = f.hitShare
	return nil
}

func (f *fanoutSys) close() {
	f.once.Do(func() {
		if f.ln != nil {
			f.ln.close()
		}
		for _, ln := range f.lns {
			ln.close()
		}
		http.DefaultClient.CloseIdleConnections()
	})
}
