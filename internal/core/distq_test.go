package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/kggen"
)

// TestDistributedMergeMatchesMonolithic is the router's exactness
// contract at the engine level: over two shards grown by a randomized
// ingest schedule, MergeRollUpPages and MergeDrillDown must reproduce
// the monolithic pages byte-for-byte across a K/offset/filter grid at
// every generation. The second option set caps the concepts kept per
// document so the cap bites: a document can then hold an entity of
// Ψ(c) without keeping c, and the shards' diversity sets must leave it
// out of c's union exactly as DrillDownPage does.
func TestDistributedMergeMatchesMonolithic(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{Seed: 11, Samples: 20, MaxSegments: 2}},
		{"concept cap", Options{Seed: 11, Samples: 20, MaxSegments: 2, MaxConceptsPerDoc: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) { testDistributedMerge(t, tc.opts) })
	}
}

func testDistributedMerge(t *testing.T, opts Options) {
	g, meta, c, _ := world(t)
	const nShards = 2
	shards := make([]*Engine, nShards)
	for s := range shards {
		shards[s] = NewEngine(g, opts)
		shards[s].IndexCorpusSharded(c, s, nShards)
	}
	syncShards(t, shards)
	mono := NewEngine(g, opts)
	mono.IndexCorpus(c)

	ctx := context.Background()
	fetchSets := func(q Query, tr *TimeRange) func([]kg.NodeID) ([][]kg.NodeID, error) {
		return func(short []kg.NodeID) ([][]kg.NodeID, error) {
			sets := make([][]kg.NodeID, len(short))
			for _, e := range shards {
				part, err := e.DiversityPartials(ctx, q, short, tr)
				if err != nil {
					return nil, err
				}
				for i, s := range part.Sets {
					sets[i] = append(sets[i], s...)
				}
			}
			return sets, nil
		}
	}

	// timeWindows derives the time grid from the monolithic engine's
	// current publication span: no filter, plus a mid-span window that
	// excludes documents on both ends.
	timeWindows := func() []*TimeRange {
		st := mono.state()
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for d := int32(0); d < int32(st.snap.DocBound()); d++ {
			if !st.snap.HasDoc(d) {
				continue
			}
			t := st.snap.Doc(d).PublishedAt
			if t < lo {
				lo = t
			}
			if t > hi {
				hi = t
			}
		}
		if lo > hi {
			return []*TimeRange{nil}
		}
		quarter := (hi - lo) / 4
		return []*TimeRange{nil, {Min: lo + quarter, Max: hi - quarter}}
	}

	check := func(stage string) {
		t.Helper()
		var queries []Query
		for _, topic := range meta.Topics {
			queries = append(queries, Query{topic.Concept}, Query{topic.Concept, topic.GroupConcept})
		}
		// The root concept matches every document, so its drill-down
		// touches well over 128 candidates: with k = 70 the page fills
		// 64+ slots (DrillDownPage's parallel head branch), and k = 130
		// widens the shortlist past the 128 floor.
		queries = append(queries, Query{g.MustLookup(kggen.RootConcept)})
		sources := []corpus.Source{corpus.Sources[0], corpus.Sources[2]}
		windows := timeWindows()
		for _, q := range queries {
			for _, k := range []int{1, 3, 8, 70, 130} {
				for _, offset := range []int{0, 2, 7} {
					for _, minScore := range []float64{0, 0.05} {
						// Alternate the time window across the grid so
						// the filtered scatter path is covered without
						// doubling the test's runtime.
						tr := windows[(k+offset)%len(windows)]
						ro := RollUpOptions{K: k, Offset: offset, MinScore: minScore, Time: tr}
						if k == 8 && offset == 0 {
							ro.Sources = sources
						}
						pages := make([]RollUpPage, len(shards))
						for s, e := range shards {
							shardOpts := ro
							shardOpts.K, shardOpts.Offset = k+offset, 0
							page, err := e.RollUpPage(ctx, q, shardOpts)
							if err != nil {
								t.Fatal(err)
							}
							pages[s] = page
						}
						got, err := MergeRollUpPages(pages, k, offset)
						if err != nil {
							t.Fatal(err)
						}
						want, err := mono.RollUpPage(ctx, q, ro)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: merged roll-up diverges for %v k=%d offset=%d min=%g:\n got:  %+v\n want: %+v",
								stage, q, k, offset, minScore, got, want)
						}

						do := DrillDownOptions{K: k, Offset: offset, MinScore: minScore, Time: tr}
						if k == 8 && offset == 2 {
							do.NoSpecificity = true
						}
						if k == 3 && offset == 0 {
							do.NoDiversity = true
						}
						parts := make([]DrillDownPartial, len(shards))
						for s, e := range shards {
							part, err := e.DrillDownPartials(ctx, q, tr)
							if err != nil {
								t.Fatal(err)
							}
							parts[s] = part
						}
						gotDD, err := MergeDrillDown(g, do, parts, fetchSets(q, tr))
						if err != nil {
							t.Fatal(err)
						}
						wantDD, err := mono.DrillDownPage(ctx, q, do)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(gotDD, wantDD) {
							t.Fatalf("%s: merged drill-down diverges for %v k=%d offset=%d min=%g:\n got:  %+v\n want: %+v",
								stage, q, k, offset, minScore, gotDD, wantDD)
						}
					}
				}
			}
		}
	}
	check("seed")

	targets := []int{1, 0, 0, 1}
	for i, target := range targets {
		batch := ingestBatch(t, 9500+uint64(i), 4+i)
		if _, err := shards[target].Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if _, err := mono.Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
		syncShards(t, shards)
		check("batch")
	}
	for _, e := range shards {
		e.WaitMerges()
	}
	mono.WaitMerges()
	check("after merges")
}

// TestMergeGenerationSkew pins the typed error the router's generation
// barrier retries on.
func TestMergeGenerationSkew(t *testing.T) {
	if _, err := MergeRollUpPages([]RollUpPage{{Generation: 1}, {Generation: 2}}, 5, 0); err != ErrGenerationSkew {
		t.Fatalf("roll-up skew error = %v", err)
	}
	_, err := MergeDrillDown(nil, DrillDownOptions{K: 5},
		[]DrillDownPartial{{Generation: 1}, {Generation: 2}}, nil)
	if err != ErrGenerationSkew {
		t.Fatalf("drill-down skew error = %v", err)
	}
}

// TestMalformedScatterInput pins that malformed distributed drill-down
// input is a typed *MalformedError on both sides of the scatter —
// never a panic.
func TestMalformedScatterInput(t *testing.T) {
	g, meta, _, e := world(t)
	ctx := context.Background()
	q := Query{meta.Topics[0].Concept}
	part, err := e.DrillDownPartials(ctx, q, nil)
	if err != nil || len(part.Rows) == 0 {
		t.Fatalf("partials: %d rows, err %v", len(part.Rows), err)
	}
	// shard clones the well-formed partial so each case can break its
	// own copy.
	shard := func() DrillDownPartial {
		p := DrillDownPartial{Generation: part.Generation, Rows: make([]DrillDownRow, len(part.Rows))}
		for i, r := range part.Rows {
			p.Rows[i] = DrillDownRow{Doc: r.Doc, NumEnts: r.NumEnts,
				Concepts: slices.Clone(r.Concepts), CDRs: slices.Clone(r.CDRs)}
		}
		return p
	}
	fetch := func(short []kg.NodeID) ([][]kg.NodeID, error) {
		d, err := e.DiversityPartials(ctx, q, short, nil)
		return d.Sets, err
	}
	wantMalformed := func(t *testing.T, err error, part int) {
		t.Helper()
		var bad *MalformedError
		if !errors.As(err, &bad) || bad.Part != part {
			t.Fatalf("err = %v; want a *MalformedError for part %d", err, part)
		}
	}
	merge := func(parts []DrillDownPartial, fetch func([]kg.NodeID) ([][]kg.NodeID, error)) error {
		_, err := MergeDrillDown(g, DrillDownOptions{K: 5}, parts, fetch)
		return err
	}

	t.Run("well-formed", func(t *testing.T) {
		if err := merge([]DrillDownPartial{shard()}, fetch); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("shortlist outside the graph", func(t *testing.T) {
		for _, c := range []kg.NodeID{kg.NodeID(g.NumNodes()), -1} {
			_, err := e.DiversityPartials(ctx, q, []kg.NodeID{c}, nil)
			wantMalformed(t, err, -1)
		}
	})
	t.Run("shortlist entity", func(t *testing.T) {
		_, err := e.DiversityPartials(ctx, q, []kg.NodeID{meta.Topics[0].Group[0]}, nil)
		wantMalformed(t, err, -1)
	})
	t.Run("row with short cdrs", func(t *testing.T) {
		bad := shard()
		bad.Rows[0].CDRs = bad.Rows[0].CDRs[:len(bad.Rows[0].CDRs)-1]
		wantMalformed(t, merge([]DrillDownPartial{{Generation: part.Generation}, bad}, fetch), 1)
	})
	t.Run("row concept outside the graph", func(t *testing.T) {
		bad := shard()
		bad.Rows[len(bad.Rows)-1].Concepts[0] = kg.NodeID(g.NumNodes())
		wantMalformed(t, merge([]DrillDownPartial{bad}, fetch), 0)
	})
	t.Run("too few sets", func(t *testing.T) {
		short := func(s []kg.NodeID) ([][]kg.NodeID, error) {
			sets, err := fetch(s)
			return sets[:len(sets)-1], err
		}
		wantMalformed(t, merge([]DrillDownPartial{shard()}, short), -1)
	})
	t.Run("set entity outside the graph", func(t *testing.T) {
		stray := func(s []kg.NodeID) ([][]kg.NodeID, error) {
			sets, err := fetch(s)
			sets[0] = append(sets[0], kg.NodeID(g.NumNodes()+7))
			return sets, err
		}
		wantMalformed(t, merge([]DrillDownPartial{shard()}, stray), -1)
	})
}
