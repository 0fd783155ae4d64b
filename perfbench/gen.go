package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"time"

	"ncexplorer"
	"ncexplorer/internal/kg"
)

// Query generation. Patterns come from the knowledge graph alone: a
// concept's breadth is the number of instances typed with it or with
// any concept below it. A pattern's first concept is drawn with Zipf
// popularity over the breadth ranking, so broad concepts dominate; its
// second and third concepts are broader ancestors of the first where
// it has any (an analyst's roll-up path), else further Zipf draws. So
// a typical roll-up page is full. The request stream is fixed by the
// seed before the system under test exists.

const (
	pageK          = 10
	timeRangeShare = 0.25 // requests carrying a time_range
	groupByShare   = 0.10 // roll-ups carrying a group_by
	rollUpShare    = 2.0 / 3.0
	zipfS          = 1.3
	seqLen         = 1 << 19
	// scenarioEpoch is the corpus generator's default scenario clock
	// start (2023-09-04T08:00:00Z); time windows are drawn over the
	// following weeks, where the corpus publishes.
	scenarioEpoch = 1693814400
)

var offsets = [...]int{0, 10, 20}

// spec is one distinct request of the workload.
type spec struct {
	op       string // "rollup" or "drilldown"
	concepts []string
	offset   int
	time     *ncexplorer.TimeRange
	groupBy  string
	body     []byte // encoded /v2 request body
	path     string // /v2/query/<op>
}

// requestBody is the /v2 query body the generator sends.
type requestBody struct {
	Concepts []string              `json:"concepts"`
	K        int                   `json:"k"`
	Offset   int                   `json:"offset"`
	Time     *ncexplorer.TimeRange `json:"time_range,omitempty"`
	GroupBy  string                `json:"group_by,omitempty"`
	Explain  bool                  `json:"explain"`
}

func (s *spec) rollUpRequest() ncexplorer.RollUpRequest {
	return ncexplorer.RollUpRequest{Concepts: s.concepts, K: pageK, Offset: s.offset,
		Time: s.time, GroupBy: s.groupBy, Explain: true}
}

func (s *spec) drillDownRequest() ncexplorer.DrillDownRequest {
	return ncexplorer.DrillDownRequest{Concepts: s.concepts, K: pageK, Offset: s.offset,
		Time: s.time, Explain: true}
}

// key is the request's canonical identity: the result-cache key the
// server derives from it, prefixed by the operation.
func (s *spec) key() string {
	if s.op == "rollup" {
		return "r|" + s.rollUpRequest().Key()
	}
	return "d|" + s.drillDownRequest().Key()
}

// workload is the seed-determined request stream: distinct specs and
// the order they are sent in.
type workload struct {
	specs []spec
	seq   []int32
	// broadest is the broadest concept that has a broader ancestor:
	// the graph's roots match nearly every article.
	broadest string
}

// ranking is the breadth order of the graph's concepts plus each
// concept's broader ancestors, broadest first.
type ranking struct {
	names     []string
	ancestors map[string][]string
}

// conceptsByBreadth ranks concepts by instance coverage, broadest
// first; ties break by name so the ranking depends on the graph only.
func conceptsByBreadth(g *kg.Graph) ranking {
	counts := make(map[kg.NodeID]int)
	seen := make(map[kg.NodeID]bool)
	var stack []kg.NodeID
	g.Instances(func(v kg.NodeID) bool {
		clear(seen)
		stack = append(stack[:0], g.ConceptsOf(v)...)
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[c] {
				continue
			}
			seen[c] = true
			counts[c]++
			stack = append(stack, g.Broader(c)...)
		}
		return true
	})
	var names []string
	breadth := make(map[string]int)
	ancestors := make(map[string][]string)
	g.Concepts(func(c kg.NodeID) bool {
		n := g.Name(c)
		names = append(names, n)
		breadth[n] = counts[c]
		clear(seen)
		stack = append(stack[:0], g.Broader(c)...)
		for len(stack) > 0 {
			a := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[a] || a == c {
				continue
			}
			seen[a] = true
			ancestors[n] = append(ancestors[n], g.Name(a))
			stack = append(stack, g.Broader(a)...)
		}
		return true
	})
	broader := func(a, b string) bool {
		if breadth[a] != breadth[b] {
			return breadth[a] > breadth[b]
		}
		return a < b
	}
	sort.Slice(names, func(i, j int) bool { return broader(names[i], names[j]) })
	for _, as := range ancestors {
		sort.Slice(as, func(i, j int) bool { return broader(as[i], as[j]) })
	}
	return ranking{names: names, ancestors: ancestors}
}

// generate builds the request stream for a seed over graph g.
func generate(g *kg.Graph, seed uint64, n int) *workload {
	r := rand.New(rand.NewSource(int64(seed)))
	ranked := conceptsByBreadth(g)
	zipf := rand.NewZipf(r, zipfS, 1, uint64(len(ranked.names)-1))
	w := &workload{seq: make([]int32, n)}
	for _, c := range ranked.names {
		if len(ranked.ancestors[c]) > 0 {
			w.broadest = c
			break
		}
	}
	index := make(map[string]int32)
	for i := range w.seq {
		s := drawSpec(r, zipf, ranked)
		k := s.key()
		id, ok := index[k]
		if !ok {
			id = int32(len(w.specs))
			index[k] = id
			s.path = "/v2/query/" + s.op
			s.body, _ = json.Marshal(requestBody{Concepts: s.concepts, K: pageK,
				Offset: s.offset, Time: s.time, GroupBy: s.groupBy, Explain: true})
			w.specs = append(w.specs, s)
		}
		w.seq[i] = id
	}
	return w
}

func drawSpec(r *rand.Rand, zipf *rand.Zipf, ranked ranking) spec {
	s := spec{op: "drilldown", offset: offsets[r.Intn(len(offsets))]}
	if r.Float64() < rollUpShare {
		s.op = "rollup"
	}
	n := 1 + r.Intn(3)
	first := ranked.names[zipf.Uint64()]
	s.concepts = []string{first}
	seen := map[string]bool{first: true}
	anc := ranked.ancestors[first]
	for len(s.concepts) < n {
		var c string
		if len(anc) > 0 {
			c = anc[r.Intn(len(anc))]
		} else {
			c = ranked.names[zipf.Uint64()]
		}
		if !seen[c] {
			seen[c] = true
			s.concepts = append(s.concepts, c)
		} else if len(anc) > 0 && len(seen) > len(anc) {
			anc = nil // every ancestor is in: fall back to Zipf draws
		}
	}
	if r.Float64() < timeRangeShare {
		s.time = drawTimeRange(r)
	}
	if s.op == "rollup" && r.Float64() < groupByShare {
		s.groupBy = [...]string{"day", "week", "month"}[r.Intn(3)]
	}
	return s
}

// drawTimeRange picks a window over the scenario's first five weeks:
// closed windows of 1, 7 or 14 days, or a window open on one side.
func drawTimeRange(r *rand.Rand) *ncexplorer.TimeRange {
	day := int64(24 * time.Hour / time.Second)
	start := scenarioEpoch + int64(r.Intn(35))*day
	end := start + [...]int64{1, 7, 14}[r.Intn(3)]*day
	f := func(t int64) string { return time.Unix(t, 0).UTC().Format(time.RFC3339) }
	switch r.Intn(4) {
	case 0:
		return &ncexplorer.TimeRange{Start: f(start)}
	case 1:
		return &ncexplorer.TimeRange{End: f(end)}
	default:
		return &ncexplorer.TimeRange{Start: f(start), End: f(end)}
	}
}
