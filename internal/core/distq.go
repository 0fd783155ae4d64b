package core

// Distributed exact querying: the scatter/gather surface a query
// router uses to answer over a sharded corpus (see shard.go for the
// sharding model) with pages byte-identical to a monolithic engine's.
//
// Roll-up distributes trivially: scores are per-document and already
// corpus-global on every shard (remote IDF statistics are folded in),
// so each shard returns its local top-(K+Offset) page and
// MergeRollUpPages k-way-merges them under the same (score desc, doc
// asc) total order the shards ranked by.
//
// Drill-down does not distribute per-document: coverage sums cdr
// contributions across *all* matched documents, and float addition is
// not associative — a router that summed per-shard coverages could
// diverge from the monolithic result in the last bits. So shards ship
// the walk step's output instead (DrillDownPartials: per matched
// document, its candidate concepts with their cdr values, in stored
// order, and its entity count), and MergeDrillDown feeds the merged
// rows, in ascending global ID order, through the same accumulate step
// DrillDownPage uses — the exact float operation sequence a single
// engine would have executed. The diversity factor needs one more
// round trip: it counts distinct matched entities per shortlisted
// concept, a set union that cannot be derived from per-shard
// cardinalities, so the router fetches per-shard entity sets
// (DiversityPartials, collected along the same pair log DrillDownPage
// scores from) for just the shortlist and dedupes across shards.
// Everything downstream — shortlist selection, score composition,
// upper-bound pruning, tie-breaking, pagination — is DrillDownPage's
// own shortlist and rank steps, so the merged page is byte-identical.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"ncexplorer/internal/kg"
	"ncexplorer/internal/topk"
)

// ErrGenerationSkew marks a merge over shard partials that were served
// from different snapshot generations. Routers treat it as transient:
// re-fetch until every shard answers at the same generation.
var ErrGenerationSkew = errors.New("core: shard answers span different snapshot generations")

// cmpDocResult is the roll-up ranking order — (score desc, doc asc) —
// shared by every shard's collector and the router's merge. Document
// IDs are globally unique, so the order is total.
func cmpDocResult(a, b DocResult) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	case a.Doc < b.Doc:
		return -1
	case a.Doc > b.Doc:
		return 1
	}
	return 0
}

// MergeRollUpPages merges per-shard roll-up pages into the global page
// for (k, offset). Every input page must have been produced at the
// same generation with K = k+offset, Offset = 0, and identical source
// and score filters; Total sums (shards partition the corpus, so
// filter-passing counts add), and the merged ranking is sliced like
// the monolithic page.
func MergeRollUpPages(pages []RollUpPage, k, offset int) (RollUpPage, error) {
	var out RollUpPage
	if len(pages) == 0 {
		return out, nil
	}
	out.Generation = pages[0].Generation
	lists := make([][]DocResult, 0, len(pages))
	for _, p := range pages {
		if p.Generation != out.Generation {
			return RollUpPage{}, ErrGenerationSkew
		}
		out.Total += p.Total
		if len(p.Results) > 0 {
			lists = append(lists, p.Results)
		}
	}
	if k <= 0 || offset < 0 {
		return out, nil
	}
	limit := k + offset
	if limit < 0 { // overflow of a huge caller offset
		limit = -1
	}
	merged := topk.MergeSorted(lists, cmpDocResult, limit)
	if offset >= len(merged) {
		return out, nil
	}
	merged = merged[offset:]
	if len(merged) > k {
		merged = merged[:k]
	}
	out.Results = merged
	return out, nil
}

// DrillDownRow is one matched document's contribution to the drill-down
// accumulation: its candidate concepts (the query's own concepts
// already filtered out) with their cdr values, in the engine's stored
// per-document order, plus the document's entity count (the |D(Q∪{c})|
// denominator input). Concepts and CDRs are parallel slices.
type DrillDownRow struct {
	Doc      int32       `json:"doc"`
	NumEnts  int32       `json:"num_ents"`
	Concepts []kg.NodeID `json:"concepts"`
	CDRs     []float64   `json:"cdrs"`
}

// DrillDownPartial is one shard's drill-down accumulation input: a row
// per matched document that has at least one candidate concept, in
// ascending global document order, pinned to the generation it was
// read from.
type DrillDownPartial struct {
	Generation uint64         `json:"generation"`
	Rows       []DrillDownRow `json:"rows,omitempty"`
}

// DrillDownPartials extracts this shard's accumulation input for query
// q — phase one of a distributed drill-down: the rows of DrillDownPage's
// own walk step, including the same publication-time filter when tr is
// non-nil, so the merged page stays byte-identical to a monolithic
// time-filtered drill-down.
func (e *Engine) DrillDownPartials(ctx context.Context, q Query, tr *TimeRange) (DrillDownPartial, error) {
	st := e.state()
	out := DrillDownPartial{Generation: st.snap.Generation}
	err := st.drillWalk(ctx, q, tr, &DrillDownRow{}, func(doc, numEnts int32, concepts []kg.NodeID, cdrs []float64) error {
		out.Rows = append(out.Rows, DrillDownRow{Doc: doc, NumEnts: numEnts,
			Concepts: slices.Clone(concepts), CDRs: slices.Clone(cdrs)})
		return nil
	})
	if err != nil {
		return DrillDownPartial{Generation: st.snap.Generation}, err
	}
	return out, nil
}

// DiversityPartial is one shard's diversity input for a shortlist of
// concepts: per concept, the distinct entities of the shard's matched
// documents that lie in the concept's direct extent, ascending.
type DiversityPartial struct {
	Generation uint64        `json:"generation"`
	Sets       [][]kg.NodeID `json:"sets"`
}

// MalformedError reports distributed drill-down input no well-formed
// peer sends: a shard row whose slices disagree or that names a node
// outside the graph, a diversity answer with the wrong number of sets
// or an entity outside the graph, or a shortlist entry that is not a
// concept. Part is the index of the offending partial in
// MergeDrillDown's parts, or -1 when the input is not one partial.
type MalformedError struct {
	Part int
	Err  error
}

func (e *MalformedError) Error() string {
	if e.Part < 0 {
		return "core: malformed drill-down input: " + e.Err.Error()
	}
	return fmt.Sprintf("core: malformed drill-down partial %d: %v", e.Part, e.Err)
}

// DiversityPartials computes this shard's diversity sets for query q
// and the given shortlist concepts — phase two of a distributed
// drill-down. It runs DrillDownPage's walk and accumulate steps and
// collects each concept's direct-extent entities along the pair-log
// chain DrillDownPage counts them from, so the union across shards
// (deduplicated by the merger — sets from different shards may
// overlap) has the same cardinality a monolithic engine's union would.
// A non-nil tr restricts membership to documents inside the window. A
// shortlist entry that is not a concept of the graph is a
// *MalformedError.
func (e *Engine) DiversityPartials(ctx context.Context, q Query, concepts []kg.NodeID, tr *TimeRange) (DiversityPartial, error) {
	st := e.state()
	for _, c := range concepts {
		if !e.g.Valid(c) || !e.g.IsConcept(c) {
			return DiversityPartial{Generation: st.snap.Generation},
				&MalformedError{Part: -1, Err: fmt.Errorf("shortlist entry %d is not a concept", c)}
		}
	}
	out := DiversityPartial{Generation: st.snap.Generation, Sets: make([][]kg.NodeID, len(concepts))}
	if len(q) == 0 || len(concepts) == 0 {
		return out, nil
	}
	sc := e.getScratch()
	defer e.putScratch(sc)
	sc.begin()
	if err := st.drillWalk(ctx, q, tr, &sc.row, sc.accumulate); err != nil {
		return DiversityPartial{Generation: st.snap.Generation}, err
	}
	ds := e.divPool.Get().(*divScratch)
	defer e.divPool.Put(ds)
	for i, c := range concepts {
		if err := ctx.Err(); err != nil {
			return DiversityPartial{Generation: st.snap.Generation}, err
		}
		st.chainUnion(sc, ds, c, &out.Sets[i])
		slices.Sort(out.Sets[i])
	}
	return out, nil
}

// MergeDrillDown reproduces DrillDownPage over shard partials: it
// k-way-merges the rows into ascending global document order and runs
// DrillDownPage's accumulate, shortlist and rank steps over them, with
// the diversity union counted over the sets fetchSets returns for
// exactly the shortlist (one slice per requested concept — per-shard
// sets concatenated; duplicates across shards are deduplicated here).
// The graph must be the same one the shards were built on. Partials at
// differing generations yield ErrGenerationSkew; malformed partials or
// sets yield a *MalformedError.
func MergeDrillDown(g *kg.Graph, opts DrillDownOptions, parts []DrillDownPartial,
	fetchSets func(shortlist []kg.NodeID) ([][]kg.NodeID, error)) (DrillDownPage, error) {
	var page DrillDownPage
	if len(parts) == 0 {
		return page, nil
	}
	page.Generation = parts[0].Generation
	for _, p := range parts {
		if p.Generation != page.Generation {
			return DrillDownPage{}, ErrGenerationSkew
		}
	}
	if opts.K <= 0 || opts.Offset < 0 {
		return page, nil
	}
	ms := getMergeScratch(g.NumNodes())
	defer mergePool.Put(ms)
	sc := ms.sc
	sc.begin()
	// The k-way merge: each part's rows ascend, so repeatedly taking the
	// smallest head document replays the monolithic walk's order.
	next := make([]int, len(parts))
	for {
		best := -1
		for p := range parts {
			if next[p] < len(parts[p].Rows) &&
				(best < 0 || parts[p].Rows[next[p]].Doc < parts[best].Rows[next[best]].Doc) {
				best = p
			}
		}
		if best < 0 {
			break
		}
		r := &parts[best].Rows[next[best]]
		if err := sc.accumulate(r.Doc, r.NumEnts, r.Concepts, r.CDRs); err != nil {
			return DrillDownPage{}, &MalformedError{Part: best, Err: err}
		}
		next[best]++
	}
	if len(sc.touched) == 0 {
		return page, nil
	}
	sc.shortlist(g.SpecTable(), opts)
	short := slices.Clone(sc.shortVals)
	sets, err := fetchSets(short)
	if err != nil {
		return DrillDownPage{}, err
	}
	if len(sets) != len(short) {
		return DrillDownPage{}, &MalformedError{Part: -1,
			Err: fmt.Errorf("%d diversity sets for %d shortlisted concepts", len(sets), len(short))}
	}
	u := setUnion{sets: sets}
	ranked, err := sc.rank(context.Background(), nil, g, &u, &ms.ds, opts)
	if err == nil {
		err = u.err
	}
	if err != nil {
		return DrillDownPage{}, err
	}
	ranked.Generation = page.Generation
	return ranked, nil
}

// mergeScratch is the merge's dense workspace, pooled across merges;
// an entry sized for another graph is dropped.
type mergeScratch struct {
	sc *queryScratch
	ds divScratch
}

var mergePool sync.Pool

func getMergeScratch(numNodes int) *mergeScratch {
	if ms, ok := mergePool.Get().(*mergeScratch); ok && len(ms.sc.stamp) == numNodes {
		return ms
	}
	return &mergeScratch{sc: newQueryScratch(numNodes), ds: newDivScratch(numNodes)}
}

// setUnion implements unioner over the shards' fetched diversity sets:
// sets[i] concatenates every shard's entities for shortlist entry i,
// and the union is their distinct count. The merge scores serially, so
// the first entity outside the graph is simply recorded in err.
type setUnion struct {
	sets [][]kg.NodeID
	err  error
}

func (u *setUnion) union(_ *queryScratch, i int, ds *divScratch) int {
	seen, _ := ds.marks()
	n := 0
	for _, v := range u.sets[i] {
		if uint(v) >= uint(len(ds.stamp)) {
			u.err = &MalformedError{Part: -1, Err: fmt.Errorf("diversity set names entity %d outside the graph", v)}
			return 0
		}
		if ds.stamp[v] != seen {
			ds.stamp[v] = seen
			n++
		}
	}
	return n
}
