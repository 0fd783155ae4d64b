// Package rw implements the single-random-walk estimator for the
// connectivity score (§III-C, Eq. 6 of the paper).
//
// The quantity to estimate, for a concept c with extent Ψ(c) and a
// context entity v, is
//
//	S(c, v) = Σ_{u ∈ Ψ(c)} Σ_{l=1..τ} β^l · |paths^⟨l⟩(u, v)|
//
// One sample: draw u uniformly from Ψ(c), then run a non-repeating
// random walk from u toward v. At each step the walk chooses uniformly
// among *eligible* neighbours — unvisited nodes that can still reach v
// within the remaining hop budget (exact reachability from the τ-hop
// reach.Ball around v when guided; merely "unvisited" when unguided). If
// the walk reaches v after l steps having had N(u₀), …, N(u_{l−1})
// eligible choices, the sample value is
//
//	r = |Ψ(c)| · β^l · Π_{i=0}^{l-1} N(u_i)
//
// and 0 if it dead-ends or exhausts τ. A specific simple path of
// length l is traversed with probability Π 1/N(u_i), so E[r] = S(c, v):
// the estimator is unbiased. (The paper's Eq. 6 writes the product from
// i = 1 with β^{l−1}, indexing the source as the first sampled node —
// the same expression; DESIGN.md §2 records the reconciliation, and
// TestUnbiasedness verifies the implementation against exact counts.)
//
// Guidance changes only which samples are zero, not the expectation:
// every step along a real path to v is eligible by definition, so path
// traversal probabilities — now with smaller N(u_i) — remain exact
// inverse weights. Fewer wasted walks ⇒ lower variance ⇒ the Fig. 7
// convergence gap between guided and unguided sampling.
package rw

import (
	"ncexplorer/internal/kg"
	"ncexplorer/internal/reach"
	"ncexplorer/internal/xrand"
)

// Estimator runs guided or unguided walks. Not safe for concurrent use
// (scratch buffers and the reachability ball); create one per
// goroutine.
type Estimator struct {
	g    *kg.Graph
	ball *reach.Ball // τ-hop ball around the current target; nil ⇒ unguided
	tau  int
	beta float64

	visited  []kg.NodeID // scratch: nodes on the current walk
	eligible []kg.NodeID // scratch: eligible neighbours at a step
	sources  []kg.NodeID // scratch: eligible source pool per target
}

// New returns an estimator with hop bound tau and damping beta. A
// guided estimator restricts every step to neighbours that can still
// reach the target, using a τ-hop ball it refills whenever the target
// changes.
func New(g *kg.Graph, guided bool, tau int, beta float64) *Estimator {
	if tau < 1 {
		panic("rw: tau must be ≥ 1")
	}
	if beta <= 0 || beta > 1 {
		panic("rw: beta must be in (0, 1]")
	}
	e := &Estimator{g: g, tau: tau, beta: beta}
	if guided {
		e.ball = reach.NewBall(g, tau)
	}
	return e
}

// Walk runs one walk from u toward v and returns the sample value for
// the pair term Σ_l β^l |paths^⟨l⟩(u, v)| (i.e. without the |Ψ(c)|
// factor). Returns 0 for dead ends and for u == v.
func (e *Estimator) Walk(r *xrand.Rand, u, v kg.NodeID) float64 {
	if u == v {
		return 0
	}
	ball := e.ball
	if ball != nil {
		ball.Center(v)
		if ball.Dist(u) < 0 {
			return 0
		}
	}
	e.visited = e.visited[:0]
	e.visited = append(e.visited, u)
	cur := u
	prod := 1.0
	for l := 1; l <= e.tau; l++ {
		remaining := e.tau - l // hops left after taking this step
		e.eligible = e.eligible[:0]
		for _, y := range e.g.InstanceNeighbors(cur) {
			if y == v {
				e.eligible = append(e.eligible, y)
				continue
			}
			if remaining == 0 || e.onWalk(y) {
				continue
			}
			if ball != nil && !ball.Within(y, remaining) {
				continue
			}
			e.eligible = append(e.eligible, y)
		}
		n := len(e.eligible)
		if n == 0 {
			return 0
		}
		prod *= float64(n)
		next := e.eligible[r.Intn(n)]
		if next == v {
			return pow(e.beta, l) * prod
		}
		e.visited = append(e.visited, next)
		cur = next
	}
	return 0
}

func (e *Estimator) onWalk(y kg.NodeID) bool {
	for _, x := range e.visited {
		if x == y {
			return true
		}
	}
	return false
}

func pow(b float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= b
	}
	return out
}

// EstimatePair estimates Σ_l β^l |paths^⟨l⟩(u, v)| as the mean of n
// walks.
func (e *Estimator) EstimatePair(r *xrand.Rand, u, v kg.NodeID, n int) float64 {
	if n <= 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += e.Walk(r, u, v)
	}
	return sum / float64(n)
}

// EstimateConcept estimates S(c, v) = Σ_{u∈ext} Σ_l β^l |paths^⟨l⟩(u,v)|
// with n samples, each drawing u uniformly from the source pool and
// scaling by the pool size (the |Ψ(c)| factor of Eq. 6).
//
// When reachability guides the estimator, the source pool is
// restricted to extent entities that can reach v within τ hops. This
// keeps the estimator exactly unbiased — sources beyond τ contribute
// precisely zero to S — while removing the dominant variance term for
// large extents, where most sources are nowhere near the context
// entity. It is the source-side counterpart of eligible-neighbour
// sampling, and the main reason the guided estimator converges within
// tens of samples (Fig. 7).
func (e *Estimator) EstimateConcept(r *xrand.Rand, ext []kg.NodeID, v kg.NodeID, n int) float64 {
	if len(ext) == 0 || n <= 0 {
		return 0
	}
	pool := ext
	if e.ball != nil {
		e.ball.Center(v)
		eligible := e.sources[:0]
		for _, u := range ext {
			if u != v && e.ball.Dist(u) >= 0 {
				eligible = append(eligible, u)
			}
		}
		e.sources = eligible
		if len(eligible) == 0 {
			return 0
		}
		pool = eligible
	}
	scale := float64(len(pool))
	sum := 0.0
	for i := 0; i < n; i++ {
		u := pool[r.Intn(len(pool))]
		sum += scale * e.Walk(r, u, v)
	}
	return sum / float64(n)
}
