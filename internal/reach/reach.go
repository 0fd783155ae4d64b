// Package reach implements the k-hop reachability guidance (§III-C of
// the paper, citing Cheng et al.) behind the random-walk connectivity
// estimator: when a walk targeting context entity v has r hops of
// budget left, only neighbours y with dist(y, v) ≤ r−1 are *eligible* —
// every other choice is a guaranteed dead end. Restricting sampling to
// eligible neighbours preserves unbiasedness (every simple path to v
// consists solely of eligible steps) while eliminating most zero-valued
// walks, which is what makes the estimator converge within ~20 samples
// in Fig. 7.
//
// The paper builds this as an offline index over every target (260 s
// and 100 GB for full DBpedia). With the small hop bounds the walks
// use (τ = 2 by default), a target's k-hop ball is tiny, so a Ball is
// instead filled on demand by a capped BFS around the current target
// and kept by its owner: one per walker, no sharing, no locks. The E9
// benchmark reports what building balls on demand costs at this repo's
// scale.
package reach

import (
	"math"

	"ncexplorer/internal/kg"
)

// Ball holds the exact BFS distance (capped at k) from every node
// within k hops of one center node. Membership is a per-node stamp
// against the current fill's generation, so moving the ball to a new
// center costs only the size of the new ball, not of the graph. The
// graph-sized arrays are allocated on the first fill. Not safe for
// concurrent use; keep one per goroutine.
type Ball struct {
	g *kg.Graph
	k int

	center kg.NodeID
	gen    uint32   // stamp of the current fill; 0 ⇒ never filled
	stamp  []uint32 // stamp[x] == gen ⇔ x is in the ball
	dist   []uint8  // dist[x] = dist(x, center), valid where stamped
	nodes  []kg.NodeID
}

// NewBall returns an empty ball answering "dist(x, center) ≤ r?" for
// r ≤ k.
func NewBall(g *kg.Graph, k int) *Ball {
	if k < 1 || k > math.MaxUint8 {
		panic("reach: k must be in [1, 255]")
	}
	return &Ball{g: g, k: k}
}

// Center moves the ball to v, refilling it unless it is already
// centered there.
func (b *Ball) Center(v kg.NodeID) {
	if b.gen != 0 && b.center == v {
		return
	}
	if b.stamp == nil {
		b.stamp = make([]uint32, b.g.NumNodes())
		b.dist = make([]uint8, b.g.NumNodes())
	}
	b.gen++
	if b.gen == 0 { // wrapped: stale stamps could alias the new fill
		clear(b.stamp)
		b.gen = 1
	}
	b.center = v
	b.stamp[v], b.dist[v] = b.gen, 0
	nodes := append(b.nodes[:0], v)
	for d, lo := 1, 0; d <= b.k; d++ {
		hi := len(nodes)
		for _, x := range nodes[lo:hi] {
			for _, y := range b.g.InstanceNeighbors(x) {
				if b.stamp[y] != b.gen {
					b.stamp[y], b.dist[y] = b.gen, uint8(d)
					nodes = append(nodes, y)
				}
			}
		}
		lo = hi
	}
	b.nodes = nodes
}

// Len returns the number of nodes in the ball, its center included.
func (b *Ball) Len() int { return len(b.nodes) }

// Bytes returns the resident size of the ball's arrays.
func (b *Ball) Bytes() int64 {
	return int64(len(b.stamp))*4 + int64(len(b.dist)) + int64(cap(b.nodes))*4
}

// Dist returns dist(x, center) if it is at most k, else -1. The ball
// must have been centered.
func (b *Ball) Dist(x kg.NodeID) int {
	if b.stamp[x] != b.gen {
		return -1
	}
	return int(b.dist[x])
}

// Within reports whether dist(x, center) ≤ r (r is clamped to k; the
// ball cannot answer beyond its cap).
func (b *Ball) Within(x kg.NodeID, r int) bool {
	d := b.Dist(x)
	return d >= 0 && d <= r
}
