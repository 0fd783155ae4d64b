package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
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
		sources := []corpus.Source{corpus.Sources[0], corpus.Sources[2]}
		windows := timeWindows()
		for _, q := range queries {
			for _, k := range []int{1, 3, 8} {
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
