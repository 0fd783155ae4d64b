package main

import (
	"sync"
	"time"

	"ncexplorer"
	"ncexplorer/internal/server"
)

// explore: one ncserver node at the default scale with ncserver's
// shipped options, driven by a closed loop of two clients. This is the
// analyst's interactive path; serving layers (decode, facade
// conversion, JSON encoding, the result cache) do most of the work.
type exploreSys struct {
	cfg    *config
	wl     *workload
	x      *ncexplorer.Explorer
	srv    *server.Server
	ln     *listener
	cur    *cursor
	checks *bodyChecks
	once   sync.Once
}

func newExplore(cfg *config, wl *workload, _ *result) (system, error) {
	x, err := ncexplorer.New(ncexplorer.Config{Scale: cfg.scale, Seed: worldSeed})
	if err != nil {
		return nil, err
	}
	srv := server.New(x, ncserverOptions())
	ln, err := serve(srv.Handler())
	if err != nil {
		return nil, err
	}
	e := &exploreSys{cfg: cfg, wl: wl, x: x, srv: srv, ln: ln,
		cur: newCursor(2, wl), checks: newBodyChecks(wl, cfg.faults)}
	if err := firstQuery(ln.url, wl); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *exploreSys) pass(p *pass) (*passOut, error) {
	var cache0, cache1 = e.srv.CacheStats(), e.srv.CacheStats()
	var eng0 ncexplorer.EngineCacheStats
	hooks := loopHooks{
		check: e.checks.check,
		onWindow: func() {
			cache0 = e.srv.CacheStats()
			eng0 = e.x.Stats().EngineCache
		},
	}
	var nocache *server.Server
	if p.tr != nil {
		nocache = server.New(e.x, noCache(ncserverOptions()))
		p.tr.start()
		hooks.sample = func(id int32, start, end time.Time, xcache string) {
			s := &e.wl.specs[id]
			hit := xcache == "HIT"
			p.tr.enqueue(func() {
				nodeReplay(p.tr, e.x, e.srv.Handler(), nocache.Handler(), s, time.Time{}, start, end, hit)
			})
		}
	}
	out := closedLoop(p, e.ln.url, e.wl, e.cur, hooks)
	cache1 = e.srv.CacheStats()
	eng1 := e.x.Stats().EngineCache
	if p.tr != nil {
		p.tr.stop()
		p.res.counters["facade.allocs_per_query"] = allocsPerQuery(e.x, e.wl, 200)
		return out, nil
	}
	hr, ev := cacheDelta(cache0, cache1)
	p.res.counters["qcache.hit_ratio"] = hr
	p.res.counters["qcache.evictions_per_kreq"] = ev
	p.res.counters["core.cdr_hit_ratio"] = memoDelta(eng0.CDR, eng1.CDR)
	p.res.counters["core.match_hit_ratio"] = memoDelta(eng0.Match, eng1.Match)
	return out, nil
}

func (e *exploreSys) verify(r *result) error {
	e.close()
	refs := e.checks.verify(r, e.wl, func(s *spec) ([]byte, any) {
		b, res, err := facadeBody(e.x, s)
		if err != nil {
			return nil, nil
		}
		return b, res
	})
	recordProperties(r, e.wl, func(i int) int { return int(e.checks.count[i].Load()) },
		e.checks.hits.Load(), e.checks.total.Load(), refs)
	return nil
}

func (e *exploreSys) close() {
	e.once.Do(func() {
		e.ln.close()
	})
}
