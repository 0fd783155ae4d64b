package reach

import (
	"math"
	"testing"

	"ncexplorer/internal/kg"
	"ncexplorer/internal/xrand"
)

// chain builds a path graph a0—a1—…—a(n−1).
func chain(t testing.TB, n int) (*kg.Graph, []kg.NodeID) {
	t.Helper()
	b := kg.NewBuilder()
	ids := make([]kg.NodeID, n)
	for i := range ids {
		ids[i] = b.AddInstance("a" + string(rune('0'+i)))
	}
	for i := 1; i < n; i++ {
		b.AddInstanceEdge(ids[i-1], ids[i])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, ids
}

func TestDistTo(t *testing.T) {
	g, ids := chain(t, 6)
	b := NewBall(g, 3)
	b.Center(ids[0])
	want := []int{0, 1, 2, 3, -1, -1}
	for i, w := range want {
		if d := b.Dist(ids[i]); d != w {
			t.Errorf("dist(a%d→a0) = %d, want %d", i, d, w)
		}
	}
	if b.Len() != 4 {
		t.Errorf("ball size = %d, want 4", b.Len())
	}
}

func TestWithin(t *testing.T) {
	g, ids := chain(t, 6)
	b := NewBall(g, 3)
	cases := []struct {
		x, v kg.NodeID
		r    int
		want bool
	}{
		{ids[2], ids[0], 2, true},
		{ids[2], ids[0], 1, false},
		{ids[3], ids[0], 3, true},
		{ids[4], ids[0], 3, false}, // distance 4 > k
		{ids[4], ids[0], 9, false}, // r clamps to k
		{ids[0], ids[0], 0, true},
		{ids[1], ids[0], -1, false},
		{ids[5], ids[3], 2, true}, // recentering moves the ball
		{ids[0], ids[3], 3, true},
		{ids[0], ids[4], 3, false},
	}
	for _, c := range cases {
		b.Center(c.v)
		if got := b.Within(c.x, c.r); got != c.want {
			t.Errorf("Within(%d,%d,%d) = %v, want %v", c.x, c.v, c.r, got, c.want)
		}
	}
}

func TestBadHopBoundPanics(t *testing.T) {
	g, _ := chain(t, 2)
	for _, k := range []int{0, 256} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: expected panic", k)
				}
			}()
			NewBall(g, k)
		}()
	}
}

// TestDistMatchesBFSOnRandomGraphs is the ball's correctness property:
// after any sequence of recenterings, its distances equal a fresh
// capped BFS from the current center, for every node. Some runs start
// the stamp generation just below its wrap-around, so stale stamps
// from earlier fills would surface as wrong memberships after the
// wrap.
func TestDistMatchesBFSOnRandomGraphs(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		r := xrand.New(seed)
		bl := kg.NewBuilder()
		const n = 40
		ids := make([]kg.NodeID, n)
		for i := range ids {
			ids[i] = bl.AddInstance("x" + string(rune('A'+i%26)) + string(rune('0'+i/26)))
		}
		for e := 0; e < 60; e++ {
			bl.AddInstanceEdge(ids[r.Intn(n)], ids[r.Intn(n)])
		}
		g, err := bl.Build()
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + int(seed%3)
		b := NewBall(g, k)
		for step := 0; step < 12; step++ {
			if seed%2 == 1 && step == 3 {
				b.gen = math.MaxUint32 - 2
			}
			v := ids[r.Intn(n)]
			b.Center(v)
			ref := bfs(g, v, k)
			size := 0
			for x := range ref {
				if ref[x] >= 0 {
					size++
				}
				if got := b.Dist(kg.NodeID(x)); got != ref[x] {
					t.Fatalf("seed %d step %d (gen %d): dist(%d→%d) = %d, want %d",
						seed, step, b.gen, x, v, got, ref[x])
				}
			}
			if b.Len() != size {
				t.Fatalf("seed %d step %d: ball size %d, want %d", seed, step, b.Len(), size)
			}
		}
	}
}

// TestTableStability pins the walkers' hot path: recentering on the
// current center keeps the fill instead of redoing the BFS.
func TestTableStability(t *testing.T) {
	g, ids := chain(t, 4)
	b := NewBall(g, 2)
	b.Center(ids[0])
	gen := b.gen
	b.Center(ids[0])
	if b.gen != gen {
		t.Fatal("recentering on the same target refilled the ball")
	}
	b.Center(ids[1])
	if b.gen == gen || b.Dist(ids[3]) != 2 {
		t.Fatal("moving the ball did not refill it")
	}
}

// TestConcurrentAccess runs one ball per goroutine over a shared
// graph, as the engine's scorers do: balls share no state, so each
// answers for its own center (run under -race to check the sharing).
func TestConcurrentAccess(t *testing.T) {
	g, ids := chain(t, 6)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			b := NewBall(g, 3)
			for i := 0; i < 200; i++ {
				v := ids[(w+i)%len(ids)]
				b.Center(v)
				ref := bfs(g, v, 3)
				for _, x := range ids {
					if b.Dist(x) != ref[x] {
						t.Errorf("worker %d: dist(%d→%d) = %d, want %d", w, x, v, b.Dist(x), ref[x])
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

// bfs is the plain reference: a graph-sized table, capped at k.
func bfs(g *kg.Graph, v kg.NodeID, k int) []int {
	d := make([]int, g.NumNodes())
	for i := range d {
		d[i] = -1
	}
	d[v] = 0
	frontier := []kg.NodeID{v}
	for depth := 1; depth <= k; depth++ {
		var next []kg.NodeID
		for _, x := range frontier {
			for _, y := range g.InstanceNeighbors(x) {
				if d[y] < 0 {
					d[y] = depth
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
	return d
}

func BenchmarkCenter(b *testing.B) {
	r := xrand.New(1)
	bl := kg.NewBuilder()
	const n = 5000
	ids := make([]kg.NodeID, n)
	for i := range ids {
		ids[i] = bl.AddInstance("n" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26)))
	}
	for e := 0; e < n*4; e++ {
		bl.AddInstanceEdge(ids[r.Intn(n)], ids[r.Intn(n)])
	}
	g, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}
	ball := NewBall(g, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ball.Center(ids[i%n])
	}
}
