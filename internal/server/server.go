// Package server exposes an Explorer over HTTP/JSON — the serving
// subsystem that turns the in-process NCExplorer facade into the
// interactive, programmable API the paper's analysts (and downstream
// risk pipelines) hit in real time.
//
// Endpoints:
//
//	GET  /v1/concepts/{entity}    roll-up options for an entity
//	GET  /v1/broader/{concept}    the next roll-up level
//	GET  /v1/keywords/{concept}   amplified keyword list (?n=10)
//	GET  /v1/topics               the paper's six evaluation queries
//	POST /v2/query/rollup         {"concepts": [...], "k": 10} → ranked
//	                              articles; pagination (offset),
//	                              source/min-score filters, time range,
//	                              group_by, explain toggle
//	POST /v2/query/drilldown      typed drill-down request → ranked
//	                              subtopic suggestions
//	POST /v2/batch                N typed queries in one POST, executed
//	                              under the engine's bounded parallelism
//	POST /v2/ingest               live ingestion: index a batch of raw
//	                              articles and publish the next index
//	                              generation (requires EnableIngest;
//	                              see ingest.go)
//	     /v2/sessions...          exploration sessions: CRUD plus
//	                              rollup/drilldown/back navigation that
//	                              mutates the current concept pattern
//	                              (see sessions.go)
//	     /v2/watchlists...        standing queries: register concept
//	                              patterns evaluated at ingest time,
//	                              with SSE alert streams and webhook
//	                              delivery (see watch.go)
//	GET  /healthz                 liveness + world summary
//	GET  /statsz                  index (incl. generation, per-segment
//	                              doc counts, ingest throughput), cache,
//	                              session, and request counters;
//	                              index.engine_cache reports the
//	                              engine's sharded memo caches and
//	                              index.watch the standing-query
//	                              counters
//
// Roll-up and drill-down answers are served through a sharded LRU
// cache (internal/qcache) keyed by the typed request's canonical key
// (RollUpRequest.Key / DrillDownRequest.Key), scoped to the explorer
// that fills it and that explorer's query epoch. The cache holds the facade's compact answer (the engine
// page plus the canonical request fields), not the response body:
// every response, hit or miss, is rendered from it by the facade's
// reflection-free encoder into a pooled buffer and sent in one Write
// with its Content-Length, so a hit is byte-identical to the miss that
// populated it. Concurrent identical queries are coalesced into one
// engine call. When an ingest (or a cache reset) changes what queries
// return, the epoch advances and every retained answer becomes
// unreachable by key — generation-tagged invalidation instead of a
// stop-the-world flush. The X-Cache response header reports HIT or
// MISS per request.
//
// Errors are JSON too. The GET /v1 routes and unknown non-/v2 paths
// keep the original flat shape {"error": "..."} byte-for-byte; every
// /v2 route shares the structured envelope {"error": {"code",
// "message", "details"}} with typed codes (unknown_concept errors
// carry nearest-concept suggestions in details.suggestions). See
// DESIGN.md §5 for the versioning contract.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ncexplorer"
	"ncexplorer/internal/qcache"
	"ncexplorer/internal/session"
)

// Options configures a Server. The zero value enables a 8-shard,
// 256-entries-per-shard cache, k clamped to 100, a 64-query batch
// cap, and 30-minute exploration sessions.
type Options struct {
	// CacheShards is the shard count of the result cache (default 8).
	CacheShards int
	// CacheCapacity is the per-shard entry capacity (default 256).
	// Negative disables result caching; singleflight coalescing of
	// concurrent identical queries still applies.
	CacheCapacity int
	// MaxK caps the k accepted by query endpoints (default 100).
	MaxK int
	// MaxBatch caps the queries accepted per /v2/batch call
	// (default 64).
	MaxBatch int
	// SessionTTL is how long an exploration session survives without
	// being touched (default 30m).
	SessionTTL time.Duration
	// MaxSessions bounds live exploration sessions; creation beyond it
	// evicts the least-recently-used session (default 1024).
	MaxSessions int
	// EnableIngest exposes POST /v2/ingest. Off by default: ingestion
	// is a write path and deployments must opt in.
	EnableIngest bool
	// MaxIngestBatch caps the articles accepted per /v2/ingest call
	// (default 1024).
	MaxIngestBatch int
	// Clock supplies the session store's time source (tests inject a
	// fake one; default time.Now).
	Clock func() time.Time
	// ClusterDataDir, when set, exposes the segment-shipping endpoints
	// (GET /internal/manifest, GET /internal/segments/{name}) serving
	// that snapshot directory — a leader publishing its store, or a
	// replica daisy-chaining the one it fetched.
	ClusterDataDir string
	// EnableCluster exposes the internal scatter/gather surface: the
	// shard statistics exchange (GET /internal/stats, POST
	// /internal/remote-stats) and the exact-merge query endpoints
	// (POST /internal/query/...). Off by default; these endpoints are
	// trusted-peer APIs, not public ones.
	EnableCluster bool
}

func (o Options) withDefaults() Options {
	if o.CacheShards == 0 {
		o.CacheShards = 8
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 256
	}
	if o.MaxK <= 0 {
		o.MaxK = 100
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxIngestBatch <= 0 {
		o.MaxIngestBatch = 1024
	}
	return o
}

// defaultK is the page size applied when a query body omits k.
const defaultK = 10

// routes enumerated for per-endpoint request counters, in /statsz
// display order; "other" counts unknown paths and wrong-method
// requests.
var routes = []string{
	"concepts", "broader", "keywords", "topics", "v2rollup", "v2drilldown",
	"v2batch", "v2sessions", "v2ingest", "v2watchlists", "internal",
	"healthz", "statsz", "other",
}

// Server is the HTTP serving layer over an Explorer. Safe for
// concurrent use; construct with New.
type Server struct {
	// x is the serving explorer, behind an atomic pointer so a replica
	// can swap in a freshly caught-up generation while requests are in
	// flight. It is nil on a replica that has not completed its first
	// catch-up; the readiness gate answers 503 until then.
	x        atomic.Pointer[ncexplorer.Explorer]
	cache    *qcache.Cache
	sessions *session.Store
	mux      *http.ServeMux
	opts     Options
	started  time.Time

	// syncing holds the replica catch-up state the readiness gate and
	// /healthz report; nil means serving normally.
	syncing atomic.Pointer[syncState]
	// clusterInfo, when set, supplies the /statsz cluster section.
	clusterInfo atomic.Pointer[func() *ClusterInfo]

	total   atomic.Int64
	errors  atomic.Int64
	byRoute map[string]*atomic.Int64

	// streamStop, when closed, ends every live SSE stream; graceful
	// shutdown closes it (StopStreams) before http.Server.Shutdown so
	// open streams don't hold the drain until its deadline.
	streamStop      chan struct{}
	stopStreamsOnce sync.Once
}

// syncState is a replica's catch-up position: the generation it is
// serving (0 if none yet) and the leader generation it is chasing.
type syncState struct {
	Generation uint64
	Target     uint64
}

// explorer returns the currently serving explorer; nil while a replica
// has not completed its first catch-up (the readiness gate keeps such
// requests from reaching handlers).
func (s *Server) explorer() *ncexplorer.Explorer { return s.x.Load() }

// SetExplorer atomically swaps the serving explorer — how a replica
// publishes a freshly opened generation while requests are in flight.
// In-flight requests finish against the explorer they loaded; new
// requests see the new one. Cache keys carry the explorer's identity
// (epochKey), so answers cached against the old instance become
// unreachable.
func (s *Server) SetExplorer(x *ncexplorer.Explorer) { s.x.Store(x) }

// SetSyncState publishes a replica's catch-up position. While syncing
// is true every endpoint answers 503 with a
// {"state":"syncing","generation":N,"target":M} body (routers use this
// to exclude the replica); syncing=false restores normal serving.
func (s *Server) SetSyncState(generation, target uint64, syncing bool) {
	if syncing {
		s.syncing.Store(&syncState{Generation: generation, Target: target})
	} else {
		s.syncing.Store(nil)
	}
}

// ClusterInfo is the /statsz cluster section: the node's role and
// shard position, its replication lag, and segment-shipping counters.
type ClusterInfo struct {
	Role             string `json:"role"`
	Shard            int    `json:"shard"`
	ShardCount       int    `json:"shard_count"`
	Generation       uint64 `json:"generation"`
	TargetGeneration uint64 `json:"target_generation,omitempty"`
	GenerationLag    int64  `json:"generation_lag"`
	ManifestPolls    int64  `json:"manifest_polls,omitempty"`
	SegmentsFetched  int64  `json:"segments_fetched,omitempty"`
	SegmentsReused   int64  `json:"segments_reused,omitempty"`
	BytesShipped     int64  `json:"bytes_shipped,omitempty"`
}

// SetClusterInfo installs the provider behind /statsz's cluster
// section (nil provider or nil result omits the section).
func (s *Server) SetClusterInfo(provider func() *ClusterInfo) {
	if provider != nil {
		s.clusterInfo.Store(&provider)
	}
}

// New wires the handlers, cache, and session store around an indexed
// Explorer. x may be nil for a replica booting ahead of its first
// catch-up: the readiness gate answers 503 until SetExplorer installs
// one.
func New(x *ncexplorer.Explorer, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		cache: qcache.New(opts.CacheShards, opts.CacheCapacity),
		sessions: session.NewStore(session.Options{
			TTL:         opts.SessionTTL,
			MaxSessions: opts.MaxSessions,
			Now:         opts.Clock,
		}),
		mux:        http.NewServeMux(),
		opts:       opts,
		started:    time.Now(),
		byRoute:    make(map[string]*atomic.Int64, len(routes)),
		streamStop: make(chan struct{}),
	}
	if x != nil {
		s.x.Store(x)
	}
	for _, r := range routes {
		s.byRoute[r] = new(atomic.Int64)
	}
	s.registerInternal()
	s.mux.HandleFunc("GET /v1/concepts/{entity}", s.counted("concepts", s.handleConcepts))
	s.mux.HandleFunc("GET /v1/broader/{concept}", s.counted("broader", s.handleBroader))
	s.mux.HandleFunc("GET /v1/keywords/{concept}", s.counted("keywords", s.handleKeywords))
	s.mux.HandleFunc("GET /v1/topics", s.counted("topics", s.handleTopics))
	s.mux.HandleFunc("GET /healthz", s.counted("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /statsz", s.counted("statsz", s.handleStatsz))

	// v2: typed queries, batch, exploration sessions (see v2.go and
	// sessions.go).
	s.mux.HandleFunc("POST /v2/query/rollup", s.counted("v2rollup", s.handleQueryV2("rollup")))
	s.mux.HandleFunc("POST /v2/query/drilldown", s.counted("v2drilldown", s.handleQueryV2("drilldown")))
	s.mux.HandleFunc("POST /v2/batch", s.counted("v2batch", s.handleBatch))
	s.mux.HandleFunc("POST /v2/ingest", s.counted("v2ingest", s.handleIngest))
	s.mux.HandleFunc("POST /v2/sessions", s.counted("v2sessions", s.handleSessionCreate))
	s.mux.HandleFunc("GET /v2/sessions", s.counted("v2sessions", s.handleSessionList))
	s.mux.HandleFunc("GET /v2/sessions/{id}", s.counted("v2sessions", s.handleSessionGet))
	s.mux.HandleFunc("DELETE /v2/sessions/{id}", s.counted("v2sessions", s.handleSessionDelete))
	s.mux.HandleFunc("POST /v2/sessions/{id}/rollup", s.counted("v2sessions", s.handleSessionRollUp))
	s.mux.HandleFunc("POST /v2/sessions/{id}/drilldown", s.counted("v2sessions", s.handleSessionDrillDown))
	s.mux.HandleFunc("POST /v2/sessions/{id}/zoom", s.counted("v2sessions", s.handleSessionZoom))
	s.mux.HandleFunc("POST /v2/sessions/{id}/back", s.counted("v2sessions", s.handleSessionBack))

	// Watchlists: standing queries with SSE alert streams (see watch.go).
	s.mux.HandleFunc("POST /v2/watchlists", s.counted("v2watchlists", s.handleWatchlistCreate))
	s.mux.HandleFunc("GET /v2/watchlists", s.counted("v2watchlists", s.handleWatchlistList))
	s.mux.HandleFunc("GET /v2/watchlists/{id}", s.counted("v2watchlists", s.handleWatchlistGet))
	s.mux.HandleFunc("DELETE /v2/watchlists/{id}", s.counted("v2watchlists", s.handleWatchlistDelete))
	s.mux.HandleFunc("GET /v2/watchlists/{id}/events", s.counted("v2watchlists", s.handleWatchlistEvents))

	// Method-less fallbacks (the method-specific patterns above win
	// when they match) and a catch-all, so wrong-method and
	// unknown-path responses are JSON and counted like everything
	// else rather than ServeMux's plain-text defaults.
	for pattern, allow := range map[string]string{
		"/v1/concepts/{entity}":  "GET",
		"/v1/broader/{concept}":  "GET",
		"/v1/keywords/{concept}": "GET",
		"/v1/topics":             "GET",
		"/healthz":               "GET",
		"/statsz":                "GET",
	} {
		s.mux.HandleFunc(pattern, s.methodNotAllowed(allow))
	}
	for pattern, allow := range map[string]string{
		"/v2/query/rollup":            "POST",
		"/v2/query/drilldown":         "POST",
		"/v2/batch":                   "POST",
		"/v2/ingest":                  "POST",
		"/v2/sessions":                "GET, POST",
		"/v2/sessions/{id}":           "GET, DELETE",
		"/v2/sessions/{id}/rollup":    "POST",
		"/v2/sessions/{id}/drilldown": "POST",
		"/v2/sessions/{id}/zoom":      "POST",
		"/v2/sessions/{id}/back":      "POST",
		"/v2/watchlists":              "GET, POST",
		"/v2/watchlists/{id}":         "GET, DELETE",
		"/v2/watchlists/{id}/events":  "GET",
	} {
		s.mux.HandleFunc(pattern, s.methodNotAllowedV2(allow))
	}
	// Unknown /v2 paths get the structured envelope; everything else
	// keeps the v1-era flat error shape.
	s.mux.HandleFunc("/v2/", s.counted("other", func(w http.ResponseWriter, r *http.Request) {
		s.writeAPIError(w, &apiError{
			status:  http.StatusNotFound,
			code:    ncexplorer.CodeNotFound,
			message: fmt.Sprintf("unknown path %q", r.URL.Path),
		})
	}))
	s.mux.HandleFunc("/", s.counted("other", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown path %q", r.URL.Path))
	}))
	return s
}

// methodNotAllowed answers a known path hit with the wrong method.
func (s *Server) methodNotAllowed(allow string) http.HandlerFunc {
	return s.counted("other", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		s.writeError(w, http.StatusMethodNotAllowed,
			fmt.Errorf("method %s not allowed (want %s)", r.Method, allow))
	})
}

// Handler returns the root http.Handler: the mux behind the readiness
// gate. A server with no explorer yet (replica pre-first-catch-up) or
// one explicitly marked syncing answers 503 with the syncing body on
// every route — /healthz included, which is how routers and load
// balancers exclude the node — except the /internal/ shipping and
// stats surface, which must stay reachable so peers can keep feeding
// the node the very data it is syncing.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/internal/") {
			st := s.syncing.Load()
			if st == nil && s.explorer() == nil {
				st = &syncState{}
			}
			if st != nil {
				s.writeSyncing(w, st)
				return
			}
		}
		s.mux.ServeHTTP(w, r)
	})
}

// writeSyncing answers a request refused by the readiness gate.
func (s *Server) writeSyncing(w http.ResponseWriter, st *syncState) {
	s.total.Add(1)
	body, _ := json.Marshal(map[string]any{
		"state":      "syncing",
		"generation": st.Generation,
		"target":     st.Target,
	})
	s.writeBody(w, http.StatusServiceUnavailable, body)
}

// CacheStats exposes the result cache counters (for tests and ops).
func (s *Server) CacheStats() qcache.Stats { return s.cache.Stats() }

func (s *Server) counted(route string, h http.HandlerFunc) http.HandlerFunc {
	n := s.byRoute[route]
	return func(w http.ResponseWriter, r *http.Request) {
		s.total.Add(1)
		n.Add(1)
		h(w, r)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	s.writeBody(w, status, body)
}

func (s *Server) writeBody(w http.ResponseWriter, status int, body []byte) {
	s.render(w, status, func(b []byte) ([]byte, error) { return append(b, body...), nil })
}

// bufPool recycles response buffers; buffers grown past maxPooledBuf
// (a large batch) are left to the collector instead.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 1 << 20

// render is the one response sink: fn appends the JSON body to a
// pooled buffer, the trailing newline follows, and the whole body goes
// out in a single Write with an explicit Content-Length (never chunked
// encoding). A body that fails to encode is answered with the 500
// envelope instead.
func (s *Server) render(w http.ResponseWriter, status int, fn func(b []byte) ([]byte, error)) {
	bp := bufPool.Get().(*[]byte)
	b, err := fn((*bp)[:0])
	if err != nil {
		s.writeAPIError(w, apiErrorFrom(fmt.Errorf("encoding response: %w", err)))
	} else {
		b = append(b, '\n')
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(b)))
		w.WriteHeader(status)
		w.Write(b)
	}
	if cap(b) <= maxPooledBuf {
		*bp = b[:0]
		bufPool.Put(bp)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.errors.Add(1)
	body, _ := json.Marshal(map[string]string{"error": err.Error()})
	s.writeBody(w, status, body)
}

// maxBodyBytes bounds query request bodies; concept queries are a few
// names, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// epochKey scopes a result-cache key to explorer x and its current
// query epoch. The epoch advances on every ingested batch and every
// ResetQueryCaches call, so entries cached under an older epoch become
// unreachable the instant the index changes — stale answers are never
// served and nothing is flushed (old entries simply age out of the
// LRU). This is also what keeps the HTTP cache coherent with the
// engine's own memo caches: both invalidate off the same event. The
// explorer's instance keeps a replica swap coherent the same way: x is
// the explorer that fills the entry and renders it, so an answer is
// never rendered against another generation's documents.
func epochKey(x *ncexplorer.Explorer, key string) string {
	return "x" + strconv.FormatUint(x.InstanceID(), 36) +
		"e" + strconv.FormatUint(x.QueryEpoch(), 36) + "|" + key
}

func (s *Server) handleConcepts(w http.ResponseWriter, r *http.Request) {
	entity := r.PathValue("entity")
	concepts, err := s.explorer().ConceptsForEntity(entity)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if concepts == nil {
		concepts = []string{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"entity": entity, "concepts": concepts})
}

func (s *Server) handleBroader(w http.ResponseWriter, r *http.Request) {
	concept := r.PathValue("concept")
	broader, err := s.explorer().BroaderConcepts(concept)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if broader == nil {
		broader = []string{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"concept": concept, "broader": broader})
}

func (s *Server) handleKeywords(w http.ResponseWriter, r *http.Request) {
	concept := r.PathValue("concept")
	n := 10
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid n %q: want a positive integer", raw))
			return
		}
		n = v
	}
	// Clamp like k on the query endpoints (the default too, in case
	// MaxK < 10): the top-k collector pre-allocates n slots, so an
	// unbounded n is an OOM lever.
	if n > s.opts.MaxK {
		n = s.opts.MaxK
	}
	keywords, err := s.explorer().TopicKeywords(concept, n)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if keywords == nil {
		keywords = []string{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"concept": concept, "keywords": keywords})
}

type topicResponse struct {
	Concept string `json:"concept"`
	Group   string `json:"group"`
}

func (s *Server) handleTopics(w http.ResponseWriter, r *http.Request) {
	topics := make([]topicResponse, 0, 6)
	for _, t := range s.explorer().EvaluationTopics() {
		topics = append(topics, topicResponse{Concept: t[0], Group: t[1]})
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"topics": topics})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"articles":       s.explorer().NumArticles(),
		"uptime_seconds": time.Since(s.started).Seconds(),
	})
}

// statszResponse is the /statsz payload: world dimensions, cache
// effectiveness, session occupancy, and request counters.
type statszResponse struct {
	Index    ncexplorer.Stats `json:"index"`
	Cache    qcache.Stats     `json:"cache"`
	Sessions sessionStats     `json:"sessions"`
	Requests requestStats     `json:"requests"`
	Cluster  *ClusterInfo     `json:"cluster,omitempty"`
	Uptime   float64          `json:"uptime_seconds"`
}

type sessionStats struct {
	Live int `json:"live"`
}

type requestStats struct {
	Total   int64            `json:"total"`
	Errors  int64            `json:"errors"`
	ByRoute map[string]int64 `json:"by_route"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	by := make(map[string]int64, len(routes))
	for _, route := range routes {
		by[route] = s.byRoute[route].Load()
	}
	resp := statszResponse{
		Index:    s.explorer().Stats(),
		Cache:    s.cache.Stats(),
		Sessions: sessionStats{Live: s.sessions.Len()},
		Requests: requestStats{
			Total:   s.total.Load(),
			Errors:  s.errors.Load(),
			ByRoute: by,
		},
		Uptime: time.Since(s.started).Seconds(),
	}
	if p := s.clusterInfo.Load(); p != nil {
		resp.Cluster = (*p)()
	}
	s.writeJSON(w, http.StatusOK, resp)
}
