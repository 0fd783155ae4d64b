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
// the raw accumulation input instead (DrillDownPartials: per matched
// document, its candidate concepts with their cdr values, in stored
// order), and MergeDrillDown replays the monolithic accumulation over
// the merged document stream in ascending global ID order — the exact
// float operation sequence a single engine would have executed. The
// diversity factor needs one more round trip: it counts distinct
// matched entities per shortlisted concept, a set union that cannot be
// derived from per-shard cardinalities, so the router fetches per-shard
// entity sets (DiversityPartials) for just the shortlist and dedupes
// across shards. Everything downstream — shortlist selection, score
// composition, tie-breaking, pagination — reuses the same helpers as
// DrillDownPage, so the merged page is byte-identical.

import (
	"context"
	"errors"
	"slices"

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
// q — phase one of a distributed drill-down. The rows replay exactly
// the per-document walk DrillDownPage performs locally, including the
// same publication-time filter when tr is non-nil, so the merged page
// stays byte-identical to a monolithic time-filtered drill-down.
func (e *Engine) DrillDownPartials(ctx context.Context, q Query, tr *TimeRange) (DrillDownPartial, error) {
	st := e.state()
	out := DrillDownPartial{Generation: st.snap.Generation}
	if len(q) == 0 {
		return out, nil
	}
	if tr != nil && !tr.overlapsSnapshot(st.snap) {
		return out, nil
	}
	docs, err := st.matchedDocsCtx(ctx, q)
	if err != nil {
		return DrillDownPartial{Generation: st.snap.Generation}, err
	}
	for i, d := range docs {
		if i%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return DrillDownPartial{Generation: st.snap.Generation}, err
			}
		}
		if tr != nil && !tr.contains(st.snap.Doc(d).PublishedAt) {
			continue
		}
		row := DrillDownRow{Doc: d, NumEnts: int32(len(st.ents[d]))}
		for _, cs := range st.docConcepts(d) {
			if queryHas(q, cs.Concept) {
				continue
			}
			row.Concepts = append(row.Concepts, cs.Concept)
			row.CDRs = append(row.CDRs, cs.CDR)
		}
		if len(row.Concepts) > 0 {
			out.Rows = append(out.Rows, row)
		}
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

// DiversityPartials computes this shard's diversity sets for query q
// and the given shortlist concepts — phase two of a distributed
// drill-down. Membership is against the *direct* extent Ψ(c), over the
// matched documents that keep c as a candidate, exactly as
// DrillDownPage counts it; the union across shards (deduplicated by
// the merger — sets from different shards may overlap) has the same
// cardinality a monolithic engine's union would. A non-nil tr
// restricts membership to documents inside the window, matching the
// coverage filter DrillDownPage applies locally.
func (e *Engine) DiversityPartials(ctx context.Context, q Query, concepts []kg.NodeID, tr *TimeRange) (DiversityPartial, error) {
	st := e.state()
	out := DiversityPartial{Generation: st.snap.Generation, Sets: make([][]kg.NodeID, len(concepts))}
	if len(q) == 0 || len(concepts) == 0 {
		return out, nil
	}
	if tr != nil && !tr.overlapsSnapshot(st.snap) {
		return out, nil
	}
	docs, err := st.matchedDocsCtx(ctx, q)
	if err != nil {
		return DiversityPartial{Generation: st.snap.Generation}, err
	}
	if tr != nil {
		kept := docs[:0:0]
		for _, d := range docs {
			if tr.contains(st.snap.Doc(d).PublishedAt) {
				kept = append(kept, d)
			}
		}
		docs = kept
	}
	// Each concept's union runs over the documents that keep it as a
	// candidate, exactly the documents DrillDownPage chains into it: a
	// document can hold an entity of Ψ(c) without keeping c (the
	// per-document concept cap), and counting it would inflate c's
	// diversity.
	byConcept := make(map[kg.NodeID][]int32, len(concepts))
	for _, c := range concepts {
		byConcept[c] = nil
	}
	for _, d := range docs {
		for _, cs := range st.docConcepts(d) {
			if list, ok := byConcept[cs.Concept]; ok {
				byConcept[cs.Concept] = append(list, d)
			}
		}
	}
	ds := e.divPool.Get().(*divScratch)
	defer e.divPool.Put(ds)
	for i, c := range concepts {
		if err := ctx.Err(); err != nil {
			return DiversityPartial{Generation: st.snap.Generation}, err
		}
		seen, counted := ds.marks()
		for _, v := range e.g.Extent(c) {
			ds.stamp[v] = seen
		}
		var set []kg.NodeID
		for _, d := range byConcept[c] {
			for _, v := range st.ents[d] {
				if ds.stamp[v] == seen {
					ds.stamp[v] = counted
					set = append(set, v)
				}
			}
		}
		slices.Sort(set)
		out.Sets[i] = set
	}
	return out, nil
}

// MergeDrillDown reproduces DrillDownPage over shard partials: it
// k-way-merges the rows into ascending global document order, replays
// the monolithic accumulation (same float operation sequence), selects
// and sorts the same max(128, K) shortlist, fetches diversity sets for
// exactly that shortlist via fetchSets (which must return one slice per
// requested concept — per-shard sets concatenated; duplicates across
// shards are deduplicated here), and pages the scored window with the
// same collector semantics. The graph must be the same one the shards
// were built on. Partials at differing generations yield
// ErrGenerationSkew.
func MergeDrillDown(g *kg.Graph, opts DrillDownOptions, parts []DrillDownPartial,
	fetchSets func(shortlist []kg.NodeID) ([][]kg.NodeID, error)) (DrillDownPage, error) {
	var page DrillDownPage
	if len(parts) == 0 {
		return page, nil
	}
	page.Generation = parts[0].Generation
	lists := make([][]DrillDownRow, 0, len(parts))
	for _, p := range parts {
		if p.Generation != page.Generation {
			return DrillDownPage{}, ErrGenerationSkew
		}
		if len(p.Rows) > 0 {
			lists = append(lists, p.Rows)
		}
	}
	useSpecificity, useDiversity := !opts.NoSpecificity, !opts.NoDiversity
	k := opts.K
	if k <= 0 || opts.Offset < 0 {
		return page, nil
	}
	rows := topk.MergeSorted(lists, func(a, b DrillDownRow) int {
		switch {
		case a.Doc < b.Doc:
			return -1
		case a.Doc > b.Doc:
			return 1
		}
		return 0
	}, -1)

	// Replay the accumulation: documents ascending, concepts in stored
	// per-document order — the exact float addition sequence
	// DrillDownPage executes over the monolithic snapshot.
	spec := g.SpecTable()
	cov := make([]float64, g.NumNodes())
	cnt := make([]int32, g.NumNodes())
	marked := make([]bool, g.NumNodes())
	var touched []kg.NodeID
	for _, row := range rows {
		for j, c := range row.Concepts {
			if !marked[c] {
				marked[c] = true
				touched = append(touched, c)
			}
			cov[c] += row.CDRs[j]
			cnt[c]++
		}
	}
	if len(touched) == 0 {
		return page, nil
	}

	// Shortlist identically to DrillDownPage: quickselect the top
	// max(128, K) by (cheap score desc, concept asc), then sort the
	// window.
	shortlistSize := 128
	if k > shortlistSize {
		shortlistSize = k
	}
	if shortlistSize > len(touched) {
		shortlistSize = len(touched)
	}
	cand := make([]candScore, 0, len(touched))
	for _, c := range touched {
		s := cov[c]
		if useSpecificity {
			s *= spec[c]
		}
		cand = append(cand, candScore{c: c, s: s})
	}
	if len(cand) > shortlistSize {
		selectTopCand(cand, shortlistSize)
		cand = cand[:shortlistSize]
	}
	slices.SortFunc(cand, cmpCandScore)
	short := make([]kg.NodeID, len(cand))
	for i, cs := range cand {
		short[i] = cs.c
	}

	sets, err := fetchSets(short)
	if err != nil {
		return DrillDownPage{}, err
	}
	subs := make([]Subtopic, len(short))
	distinct := make(map[kg.NodeID]struct{})
	for i, c := range short {
		clear(distinct)
		union := 0
		for _, v := range sets[i] {
			if _, ok := distinct[v]; !ok {
				distinct[v] = struct{}{}
				union++
			}
		}
		sub := Subtopic{
			Concept:     c,
			Coverage:    cov[c],
			Specificity: spec[c],
			MatchedDocs: int(cnt[c]),
		}
		if n := int(cnt[c]); n > 0 {
			sub.Diversity = float64(union) / float64(n)
		}
		score := sub.Coverage
		if useSpecificity {
			score *= sub.Specificity
		}
		if useDiversity {
			score *= sub.Diversity
		}
		sub.Score = score
		subs[i] = sub
	}

	// Page exactly like DrillDownPage: push every scored entry in
	// shortlist order (its pruning provably retains the same set), same
	// collector, same Total semantics, same offset slice.
	limit := k + opts.Offset
	if limit < 0 || limit > len(subs) {
		limit = len(subs)
	}
	coll := topk.New[int32](limit)
	var total int
	if opts.MinScore > 0 {
		for i, sub := range subs {
			if sub.Score < opts.MinScore {
				continue
			}
			total++
			coll.Push(int32(i), sub.Score)
		}
	} else {
		total = len(subs)
		for i := range subs {
			coll.Push(int32(i), subs[i].Score)
		}
	}
	items := coll.Sorted()
	page.Total = total
	if opts.Offset >= len(items) {
		return page, nil
	}
	items = items[opts.Offset:]
	page.Results = make([]Subtopic, len(items))
	for i, it := range items {
		page.Results[i] = subs[it.Value]
	}
	return page, nil
}
