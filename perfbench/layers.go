package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"ncexplorer"
	"ncexplorer/internal/core"
	"ncexplorer/internal/qcache"
	"ncexplorer/internal/server"
)

// cacheCapacity is the result cache's entry count under ncserver's
// defaults (8 shards of 256).
const cacheCapacity = 8 * 256

// ncserverOptions returns the server options ncserver ships with.
func ncserverOptions() server.Options {
	return server.Options{
		CacheShards:    8,
		CacheCapacity:  256,
		MaxK:           100,
		MaxBatch:       64,
		SessionTTL:     30 * time.Minute,
		MaxSessions:    1024,
		MaxIngestBatch: 1024,
	}
}

// noCache turns server options into a replay server's: the result
// cache holds nothing, so a replayed miss stays a miss.
func noCache(o server.Options) server.Options {
	o.CacheCapacity = -1
	return o
}

// serveInProcess runs one request through a handler without a socket.
func serveInProcess(h http.Handler, s *spec) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, s.path, bytes.NewReader(s.body)))
	return rec
}

// coreRollUp resolves a roll-up spec to the engine call the facade makes.
func coreRollUp(x *ncexplorer.Explorer, s *spec) (core.Query, core.RollUpOptions) {
	q, _ := x.ResolveConcepts(ncexplorer.CanonicalConcepts(s.concepts))
	tr, _ := ncexplorer.ResolveTimeRange(s.time)
	gb := map[string]core.GroupBy{"": core.GroupNone, "day": core.GroupDay,
		"week": core.GroupWeek, "month": core.GroupMonth}[s.groupBy]
	return q, core.RollUpOptions{K: pageK, Offset: s.offset, Time: tr, GroupBy: gb}
}

// coreDrillDown resolves a drill-down spec to the engine call.
func coreDrillDown(x *ncexplorer.Explorer, s *spec) (core.Query, core.DrillDownOptions) {
	q, _ := x.ResolveConcepts(ncexplorer.CanonicalConcepts(s.concepts))
	tr, _ := ncexplorer.ResolveTimeRange(s.time)
	return q, core.DrillDownOptions{K: pageK, Offset: s.offset, Time: tr}
}

// facadeBody is what a server answers for s: the JSON encoding of the
// facade result plus the trailing newline the server writes.
func facadeBody(x *ncexplorer.Explorer, s *spec) ([]byte, any, error) {
	ctx := context.Background()
	var (
		res any
		err error
	)
	if s.op == "rollup" {
		res, err = x.RollUpQuery(ctx, s.rollUpRequest())
	} else {
		res, err = x.DrillDownQuery(ctx, s.drillDownRequest())
	}
	if err != nil {
		return nil, nil, err
	}
	b, err := json.Marshal(res)
	return append(b, '\n'), res, err
}

// nodeReplay replays a sampled query at each layer of one ncserver
// node: the in-process handler (the live server for a cache hit, the
// no-cache twin for a miss), then for a miss the facade, the engine
// and the encoder. due is the open-loop latency origin (see origin),
// zero for a closed loop.
func nodeReplay(t *tracer, x *ncexplorer.Explorer, live, nocache http.Handler, s *spec,
	due, start, end time.Time, hit bool) {
	req := t.newReq()
	rootStart := start
	if !due.IsZero() {
		rootStart = due
	}
	root := t.add(req, -1, "query", rootStart, end)
	if !due.IsZero() {
		t.add(req, root, "loadgen.late", due, start)
	}
	h := nocache
	if hit {
		h = live
	}
	hid := t.timed(req, root, "server.handler", func() { serveInProcess(h, s) })
	if hit {
		return
	}
	ctx := context.Background()
	var res any
	if s.op == "rollup" {
		fid := t.timed(req, hid, "facade.rollup", func() { res, _ = x.RollUpQuery(ctx, s.rollUpRequest()) })
		q, opts := coreRollUp(x, s)
		t.timed(req, fid, "core.rollup", func() { _, _ = x.Engine().RollUpPage(ctx, q, opts) })
	} else {
		fid := t.timed(req, hid, "facade.drilldown", func() { res, _ = x.DrillDownQuery(ctx, s.drillDownRequest()) })
		q, opts := coreDrillDown(x, s)
		t.timed(req, fid, "core.drilldown", func() { _, _ = x.Engine().DrillDownPage(ctx, q, opts) })
	}
	var b []byte
	t.timed(req, hid, "server.encode", func() { b, _ = json.Marshal(res) })
	t.value("server.resp_kb", float64(len(b))/1024)
}

// allocsPerQuery measures the facade's heap allocations per query over
// the first n distinct specs, with the load stopped.
func allocsPerQuery(x *ncexplorer.Explorer, wl *workload, n int) float64 {
	n = min(n, len(wl.specs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		s := &wl.specs[i]
		if s.op == "rollup" {
			_, _ = x.RollUpQuery(context.Background(), s.rollUpRequest())
		} else {
			_, _ = x.DrillDownQuery(context.Background(), s.drillDownRequest())
		}
	}
	runtime.ReadMemStats(&after)
	return ratio(float64(after.Mallocs-before.Mallocs), float64(n))
}

// bodyChecks verifies closed-loop answers: each spec's answers must
// all hash alike, and the hash must match the reference afterwards.
type bodyChecks struct {
	hash   []atomic.Uint64
	count  []atomic.Int32 // answers per spec
	bad    []atomic.Int32 // answers per spec that failed the check
	hits   atomic.Int64
	total  atomic.Int64
	faults faults
	n      atomic.Int64
}

func newBodyChecks(wl *workload, f faults) *bodyChecks {
	return &bodyChecks{hash: make([]atomic.Uint64, len(wl.specs)),
		count: make([]atomic.Int32, len(wl.specs)), bad: make([]atomic.Int32, len(wl.specs)), faults: f}
}

// check is a loopHooks.check: status 200 and a body equal to every
// earlier answer to the same spec.
func (b *bodyChecks) check(id int32, status int, xcache string, body []byte) bool {
	ok := b.match(id, status, xcache, body)
	if !ok {
		b.bad[id].Add(1)
	}
	return ok
}

func (b *bodyChecks) match(id int32, status int, xcache string, body []byte) bool {
	b.count[id].Add(1)
	b.total.Add(1)
	if xcache == "HIT" {
		b.hits.Add(1)
	}
	if status != http.StatusOK {
		return false
	}
	h := fnv64(body)
	if b.faults.wrongBody && b.n.Add(1) == 100 {
		h++ // a corrupted answer: must count as a failed operation
	}
	if h == 0 {
		h = 1 // 0 marks "no answer yet"
	}
	if b.hash[id].CompareAndSwap(0, h) {
		return true
	}
	return b.hash[id].Load() == h
}

// verify compares each answered spec's hash to the reference body and
// counts every answer to a mismatching spec as failed (those the run
// already failed are not counted twice). It returns the reference
// results by spec index, nil for specs never sent.
func (b *bodyChecks) verify(r *result, wl *workload, ref func(s *spec) ([]byte, any)) []any {
	refs := make([]any, len(wl.specs))
	for i := range wl.specs {
		n := b.count[i].Load()
		if n == 0 {
			continue
		}
		body, res := ref(&wl.specs[i])
		refs[i] = res
		h := fnv64(body)
		if h == 0 {
			h = 1
		}
		if b.hash[i].Load() != h {
			r.failed.Add(int64(n - b.bad[i].Load()))
		}
	}
	return refs
}

// cacheDelta reads result-cache counters as a hit ratio and evictions
// per thousand lookups between two snapshots.
func cacheDelta(a, b qcache.Stats) (hitRatio, evictPerK float64) {
	lookups := float64((b.Hits - a.Hits) + (b.Misses - a.Misses) + (b.Coalesced - a.Coalesced))
	return ratio(float64(b.Hits-a.Hits), lookups), ratio(float64(b.Evictions-a.Evictions)*1000, lookups)
}

// memoDelta reads an engine memo's hit ratio between two snapshots. A
// generation swap restarts the memo's counters; then the later
// snapshot alone is used.
func memoDelta(a, b ncexplorer.CacheCounters) float64 {
	if b.Hits < a.Hits || b.Misses < a.Misses {
		a = ncexplorer.CacheCounters{}
	}
	return ratio(float64(b.Hits-a.Hits), float64((b.Hits-a.Hits)+(b.Misses-a.Misses)+(b.Coalesced-a.Coalesced)))
}

// recordProperties derives the workload properties from the reference
// results of the sent specs, weighted by how often each was sent.
func recordProperties(r *result, wl *workload, count func(i int) int, hits, total int64, refs []any) {
	var sent, zero, timed, grouped, rollups, distinct float64
	var fills []float64
	for i := range wl.specs {
		n := count(i)
		if n == 0 {
			continue
		}
		s := &wl.specs[i]
		w := float64(n)
		distinct++
		sent += w
		if s.time != nil {
			timed += w
		}
		if s.groupBy != "" {
			grouped += w
		}
		switch res := refs[i].(type) {
		case ncexplorer.RollUpResult:
			rollups += w
			if res.Total == 0 {
				zero += w
			}
			for j := 0; j < n; j++ {
				fills = append(fills, float64(len(res.Articles))/pageK)
			}
		case ncexplorer.DrillDownResult:
			if res.Total == 0 {
				zero += w
			}
		}
	}
	r.props["hit_share"] = ratio(float64(hits), float64(total))
	r.props["zero_result_share"] = ratio(zero, sent)
	r.props["rollup_fill_p50"] = median(fills)
	r.props["distinct_keys_per_capacity"] = distinct / cacheCapacity
	r.props["distinct_keys"] = distinct
	r.props["time_range_share"] = ratio(timed, sent)
	r.props["group_by_share"] = ratio(grouped, rollups)
	r.props["rollup_share"] = ratio(rollups, sent)
}
