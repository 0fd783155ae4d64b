//go:build !race

// The query scratch behind RollUpPageInto is pooled, and sync.Pool
// drops entries at random under the race detector, so this gate only
// builds without -race (CI runs it in its non-race NoAlloc step).

package core

import (
	"context"
	"testing"
)

// TestWarmRollUpPageIntoNoAlloc pins the zero-alloc warm path outside
// the benchmark suite, for both the pruned single-concept scan and the
// multi-concept leapfrog.
func TestWarmRollUpPageIntoNoAlloc(t *testing.T) {
	_, meta, _, e := world(t)
	topic := meta.Topics[0]
	ctx := context.Background()
	for _, q := range []Query{
		{topic.Concept},
		{topic.Concept, topic.GroupConcept},
	} {
		var page RollUpPage
		opts := RollUpOptions{K: 8}
		if err := e.RollUpPageInto(ctx, q, opts, &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Results) == 0 {
			t.Fatalf("query %v returned no results", q)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := e.RollUpPageInto(ctx, q, opts, &page); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("warm RollUpPageInto(%v) allocates %.1f/op, want 0", q, allocs)
		}
	}
}
