// Package hypergraph implements weighted hypergraph partitioning by
// multilevel recursive bisection with Fiduccia–Mattheyses (FM)
// refinement. It stands in for the hMetis package the paper uses for the
// "horizontal" dimension of SI test-set compaction: vertices are cores
// (weighted by wrapper output cell count), hyperedges are SI test
// patterns connecting their care cores (weighted by pattern
// multiplicity), and the partitioner minimizes the total weight of cut
// hyperedges — the number of SI patterns that must remain full-length —
// subject to a balance constraint on the vertex weights.
package hypergraph

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"sitam/internal/obs"
)

// Edge is one hyperedge: a set of vertex indices and a weight.
type Edge struct {
	Pins   []int
	Weight int64
}

// Hypergraph is a vertex-weighted, edge-weighted hypergraph.
type Hypergraph struct {
	VertexWeight []int64
	Edges        []Edge
}

// New creates a hypergraph with n vertices of the given weights.
func New(weights []int64) *Hypergraph {
	return &Hypergraph{VertexWeight: append([]int64(nil), weights...)}
}

// AddEdge adds a hyperedge over the given pins. Duplicate pins are
// deduplicated; single-pin edges are kept (they are never cut and do not
// influence partitioning, but they keep pattern accounting simple).
func (h *Hypergraph) AddEdge(pins []int, weight int64) error {
	if weight < 0 {
		return fmt.Errorf("hypergraph: negative edge weight %d", weight)
	}
	seen := make(map[int]struct{}, len(pins))
	uniq := make([]int, 0, len(pins))
	for _, p := range pins {
		if p < 0 || p >= len(h.VertexWeight) {
			return fmt.Errorf("hypergraph: pin %d out of range [0,%d)", p, len(h.VertexWeight))
		}
		if _, dup := seen[p]; !dup {
			seen[p] = struct{}{}
			uniq = append(uniq, p)
		}
	}
	sort.Ints(uniq)
	h.Edges = append(h.Edges, Edge{Pins: uniq, Weight: weight})
	return nil
}

// NumVertices returns the vertex count.
func (h *Hypergraph) NumVertices() int { return len(h.VertexWeight) }

// TotalVertexWeight returns the sum of vertex weights.
func (h *Hypergraph) TotalVertexWeight() int64 {
	var t int64
	for _, w := range h.VertexWeight {
		t += w
	}
	return t
}

// CutWeight returns the total weight of hyperedges spanning more than
// one part under the given assignment.
func (h *Hypergraph) CutWeight(assign []int) int64 {
	var cut int64
	for _, e := range h.Edges {
		if len(e.Pins) == 0 {
			continue
		}
		first := assign[e.Pins[0]]
		for _, p := range e.Pins[1:] {
			if assign[p] != first {
				cut += e.Weight
				break
			}
		}
	}
	return cut
}

// Options configures partitioning.
type Options struct {
	// Tolerance is the allowed relative imbalance: each part's weight
	// may exceed the perfectly balanced share by this fraction.
	// Zero defaults to 0.10 (hMetis' customary UBfactor=10).
	Tolerance float64

	// Seed drives the randomized coarsening and initial partitions.
	Seed int64

	// Restarts is the number of randomized initial partitions tried at
	// the coarsest level; the best refined result wins. Zero defaults
	// to 8.
	Restarts int

	// CoarsenTo stops coarsening once the vertex count is at or below
	// this size. Zero defaults to 40.
	CoarsenTo int

	// Trace receives the partitioner's search-trace events: a
	// "partition" phase span whose PhaseEnd carries the cut weight,
	// plus a deadline_hit event when the search ran degraded. nil
	// disables tracing.
	Trace obs.Sink
}

func (o Options) withDefaults() Options {
	if o.Tolerance == 0 {
		o.Tolerance = 0.10
	}
	if o.Restarts == 0 {
		o.Restarts = 8
	}
	if o.CoarsenTo == 0 {
		o.CoarsenTo = 40
	}
	return o
}

// PartitionK partitions h into k parts by recursive bisection and
// returns the per-vertex part assignment and the cut weight. k must be
// at least 1; k == 1 returns the trivial partition.
//
// A cancelled or expired context never fails the partition: the
// multilevel machinery skips restarts and FM refinement passes once the
// context is done, falling back to a single greedy initial bisection
// per level, so a structurally valid (if lower-quality) balanced
// partition always comes back. The returned bool reports whether the
// search was degraded by the context.
func PartitionK(ctx context.Context, h *Hypergraph, k int, opts Options) ([]int, int64, bool, error) {
	if k < 1 {
		return nil, 0, false, fmt.Errorf("hypergraph: k must be >= 1, got %d", k)
	}
	opts = opts.withDefaults()
	n := h.NumVertices()
	assign := make([]int, n)
	if k == 1 || n == 0 {
		return assign, 0, false, nil
	}
	if k > n {
		return nil, 0, false, fmt.Errorf("hypergraph: k=%d exceeds vertex count %d", k, n)
	}
	span := obs.Span(opts.Trace, "partition")
	rng := rand.New(rand.NewSource(opts.Seed))
	// Recursive bisection: split [0,k) parts over the vertex set,
	// proportionally by part count.
	var recurse func(vertices []int, partLo, partHi int) error
	recurse = func(vertices []int, partLo, partHi int) error {
		if partHi-partLo == 1 {
			for _, v := range vertices {
				assign[v] = partLo
			}
			return nil
		}
		kLeft := (partHi - partLo + 1) / 2
		frac := float64(kLeft) / float64(partHi-partLo)
		sub, fromSub := induce(h, vertices)
		side, err := bisect(ctx, sub, frac, opts, rng)
		if err != nil {
			return err
		}
		var left, right []int
		for i, s := range side {
			if s == 0 {
				left = append(left, fromSub[i])
			} else {
				right = append(right, fromSub[i])
			}
		}
		if len(left) < kLeft || len(right) < (partHi-partLo)-kLeft {
			// Not enough vertices on a side to host its parts; rebalance
			// by moving the lightest vertices across.
			left, right = forceCounts(h, left, right, kLeft, (partHi-partLo)-kLeft)
		}
		if err := recurse(left, partLo, partLo+kLeft); err != nil {
			return err
		}
		return recurse(right, partLo+kLeft, partHi)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if err := recurse(all, 0, k); err != nil {
		return nil, 0, false, err
	}
	// Cancellation is permanent, so checking once at the end captures
	// whether any stage above ran in degraded mode.
	cut := h.CutWeight(assign)
	degraded := ctx.Err() != nil
	if opts.Trace != nil {
		if degraded {
			opts.Trace.Emit(obs.Event{Type: obs.DeadlineHit, Phase: "partition", Cause: obs.CtxCause(ctx.Err())})
		}
		span.End(0, cut)
	}
	return assign, cut, degraded, nil
}

// forceCounts moves the lightest vertices between sides until each side
// has at least its minimum count.
func forceCounts(h *Hypergraph, left, right []int, minLeft, minRight int) ([]int, []int) {
	byWeight := func(s []int) {
		sort.Slice(s, func(a, b int) bool {
			if h.VertexWeight[s[a]] != h.VertexWeight[s[b]] {
				return h.VertexWeight[s[a]] < h.VertexWeight[s[b]]
			}
			return s[a] < s[b]
		})
	}
	for len(left) < minLeft {
		byWeight(right)
		left = append(left, right[0])
		right = right[1:]
	}
	for len(right) < minRight {
		byWeight(left)
		right = append(right, left[0])
		left = left[1:]
	}
	return left, right
}

// induce builds the sub-hypergraph over the given vertices. Hyperedges
// are restricted to pins inside the set; edges with fewer than one pin
// inside vanish. Returns the sub-hypergraph and the sub-to-original
// vertex index mapping.
func induce(h *Hypergraph, vertices []int) (*Hypergraph, []int) {
	toSub := make(map[int]int, len(vertices))
	fromSub := make([]int, len(vertices))
	weights := make([]int64, len(vertices))
	for i, v := range vertices {
		toSub[v] = i
		fromSub[i] = v
		weights[i] = h.VertexWeight[v]
	}
	sub := New(weights)
	for _, e := range h.Edges {
		var pins []int
		for _, p := range e.Pins {
			if sp, ok := toSub[p]; ok {
				pins = append(pins, sp)
			}
		}
		if len(pins) >= 2 {
			sub.Edges = append(sub.Edges, Edge{Pins: pins, Weight: e.Weight})
		}
	}
	return sub, fromSub
}
