package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// goldenPlanDigest pins the tiny-scale index bit for bit: every concept
// plan's documents, cdr, cdro and cdrc, plus the drill-down of every
// evaluation topic. A change to how connectivity is sampled, how
// reachability guides the walks, or how plans are built shows up here
// as a different digest.
const goldenPlanDigest = 0xee85417c67ea8d84

func TestGoldenPlanDigest(t *testing.T) {
	g, meta, c, _ := world(t)
	e := NewEngine(g, Options{Seed: 11})
	e.IndexCorpus(c)
	st := e.state()

	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for ci := range st.plans {
		p := &st.plans[ci]
		put(uint64(ci))
		put(uint64(len(p.docs)))
		for j, d := range p.docs {
			put(uint64(d))
			put(math.Float64bits(p.scores[j]))
			put(math.Float64bits(p.ont[j]))
			put(math.Float64bits(p.cdrc[j]))
		}
	}
	for _, topic := range meta.Topics {
		page, err := e.DrillDownPage(context.Background(), Query{topic.Concept}, DrillDownOptions{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(page.Total))
		for _, s := range page.Results {
			put(uint64(s.Concept))
			put(math.Float64bits(s.Score))
			put(math.Float64bits(s.Diversity))
			put(uint64(s.MatchedDocs))
		}
	}
	if got := h.Sum64(); got != goldenPlanDigest {
		t.Fatalf("plan digest = %#x, want %#x", got, uint64(goldenPlanDigest))
	}
}
