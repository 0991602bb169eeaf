package hypergraph

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

func uniform(n int, w int64) []int64 {
	ws := make([]int64, n)
	for i := range ws {
		ws[i] = w
	}
	return ws
}

func TestAddEdgeValidation(t *testing.T) {
	h := New(uniform(4, 1))
	if err := h.AddEdge([]int{0, 5}, 1); err == nil {
		t.Error("accepted out-of-range pin")
	}
	if err := h.AddEdge([]int{0, 1}, -1); err == nil {
		t.Error("accepted negative weight")
	}
	if err := h.AddEdge([]int{0, 1, 1, 0}, 2); err != nil {
		t.Fatal(err)
	}
	if got := len(h.Edges[0].Pins); got != 2 {
		t.Errorf("duplicate pins not deduplicated: %v", h.Edges[0].Pins)
	}
}

func TestCutWeight(t *testing.T) {
	h := New(uniform(4, 1))
	mustAdd(t, h, []int{0, 1}, 3)
	mustAdd(t, h, []int{2, 3}, 5)
	mustAdd(t, h, []int{0, 3}, 7)
	assign := []int{0, 0, 1, 1}
	if got := h.CutWeight(assign); got != 7 {
		t.Errorf("CutWeight = %d, want 7", got)
	}
	if got := h.CutWeight([]int{0, 0, 0, 0}); got != 0 {
		t.Errorf("CutWeight all-same = %d, want 0", got)
	}
}

func mustAdd(t *testing.T, h *Hypergraph, pins []int, w int64) {
	t.Helper()
	if err := h.AddEdge(pins, w); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionKTrivial(t *testing.T) {
	h := New(uniform(5, 1))
	assign, cut, _, err := PartitionK(context.Background(), h, 1, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cut != 0 {
		t.Errorf("k=1 cut = %d", cut)
	}
	for _, a := range assign {
		if a != 0 {
			t.Errorf("k=1 assign = %v", assign)
		}
	}
	if _, _, _, err := PartitionK(context.Background(), h, 0, Options{}); err == nil {
		t.Error("accepted k=0")
	}
	if _, _, _, err := PartitionK(context.Background(), h, 6, Options{}); err == nil {
		t.Error("accepted k > n")
	}
}

func TestPartitionObviousClusters(t *testing.T) {
	// Two 5-cliques joined by one light edge: bisection must cut only
	// the light edge.
	h := New(uniform(10, 1))
	for _, grp := range [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}} {
		for i := 0; i < len(grp); i++ {
			for j := i + 1; j < len(grp); j++ {
				mustAdd(t, h, []int{grp[i], grp[j]}, 10)
			}
		}
	}
	mustAdd(t, h, []int{4, 5}, 1)
	assign, cut, _, err := PartitionK(context.Background(), h, 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cut != 1 {
		t.Errorf("cut = %d, want 1 (assign %v)", cut, assign)
	}
	for i := 1; i < 5; i++ {
		if assign[i] != assign[0] {
			t.Errorf("cluster A split: %v", assign)
		}
		if assign[5+i] != assign[5] {
			t.Errorf("cluster B split: %v", assign)
		}
	}
	if assign[0] == assign[5] {
		t.Errorf("clusters not separated: %v", assign)
	}
}

func TestPartitionRingLocality(t *testing.T) {
	// A weighted ring: the 4-way partition should cut only ~4 edges.
	n := 32
	h := New(uniform(n, 10))
	for i := 0; i < n; i++ {
		mustAdd(t, h, []int{i, (i + 1) % n}, 100)
	}
	assign, cut, _, err := PartitionK(context.Background(), h, 4, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cut > 600 {
		t.Errorf("ring cut = %d, want <= 600 (6 edges)", cut)
	}
	counts := map[int]int{}
	for _, a := range assign {
		counts[a]++
	}
	if len(counts) != 4 {
		t.Fatalf("expected 4 parts, got %v", counts)
	}
	for part, c := range counts {
		if c < 4 || c > 12 {
			t.Errorf("part %d badly unbalanced: %d of %d vertices", part, c, n)
		}
	}
}

func TestPartitionBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(24)
		weights := make([]int64, n)
		var total int64
		for i := range weights {
			weights[i] = int64(1 + rng.Intn(50))
			total += weights[i]
		}
		h := New(weights)
		for e := 0; e < n*2; e++ {
			k := 2 + rng.Intn(3)
			pins := make([]int, k)
			for j := range pins {
				pins[j] = rng.Intn(n)
			}
			if err := h.AddEdge(pins, int64(1+rng.Intn(9))); err != nil {
				return false
			}
		}
		for _, k := range []int{2, 4} {
			assign, cut, _, err := PartitionK(context.Background(), h, k, Options{Seed: seed})
			if err != nil {
				return false
			}
			if cut != h.CutWeight(assign) {
				return false
			}
			partW := make([]int64, k)
			for v, a := range assign {
				if a < 0 || a >= k {
					return false
				}
				partW[a] += weights[v]
			}
			// Every part non-empty and no part above ~75% of the total
			// (loose sanity bound; exact balance is tolerance-driven
			// and heavy single vertices can force imbalance).
			for _, w := range partW {
				if w <= 0 && k <= n {
					return false
				}
				if float64(w) > 0.80*float64(total) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	h := New(uniform(20, 3))
	rng := rand.New(rand.NewSource(8))
	for e := 0; e < 50; e++ {
		mustAdd(t, h, []int{rng.Intn(20), rng.Intn(20), rng.Intn(20)}, int64(1+rng.Intn(5)))
	}
	a1, c1, _, err := PartitionK(context.Background(), h, 4, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	a2, c2, _, err := PartitionK(context.Background(), h, 4, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("cut differs across identical seeds: %d vs %d", c1, c2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("assignment differs at %d", i)
		}
	}
}

func TestPartitionKEqualsN(t *testing.T) {
	// k == n: every vertex in its own part; every multi-pin edge cut.
	h := New(uniform(5, 2))
	mustAdd(t, h, []int{0, 1}, 3)
	mustAdd(t, h, []int{2, 3, 4}, 4)
	assign, cut, _, err := PartitionK(context.Background(), h, 5, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, a := range assign {
		if seen[a] {
			t.Fatalf("part %d reused in %v", a, assign)
		}
		seen[a] = true
	}
	if cut != 7 {
		t.Errorf("cut = %d, want 7 (all edges)", cut)
	}
}

func TestPartitionSingleVertexParts(t *testing.T) {
	// Heavily skewed weights: a single huge vertex must still land in
	// exactly one part and the partition must stay a partition.
	h := New([]int64{1000, 1, 1, 1, 1, 1})
	for i := 1; i < 6; i++ {
		mustAdd(t, h, []int{0, i}, 1)
	}
	assign, _, _, err := PartitionK(context.Background(), h, 2, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, a := range assign {
		counts[a]++
	}
	if len(counts) != 2 {
		t.Errorf("parts = %v", counts)
	}
}

func TestCoarsenShrinks(t *testing.T) {
	n := 100
	h := New(uniform(n, 1))
	rng := rand.New(rand.NewSource(4))
	for e := 0; e < 300; e++ {
		mustAdd(t, h, []int{rng.Intn(n), rng.Intn(n)}, 1)
	}
	coarse, vmap, shrunk := coarsen(h, rng)
	if !shrunk {
		t.Fatal("coarsen did not shrink a dense graph")
	}
	if coarse.NumVertices() >= n {
		t.Errorf("coarse has %d vertices", coarse.NumVertices())
	}
	if coarse.TotalVertexWeight() != h.TotalVertexWeight() {
		t.Errorf("vertex weight not conserved: %d vs %d", coarse.TotalVertexWeight(), h.TotalVertexWeight())
	}
	for v, cv := range vmap {
		if cv < 0 || cv >= coarse.NumVertices() {
			t.Fatalf("vmap[%d] = %d out of range", v, cv)
		}
	}
}

func TestCoarsenNoEdges(t *testing.T) {
	h := New(uniform(10, 1))
	rng := rand.New(rand.NewSource(1))
	_, _, shrunk := coarsen(h, rng)
	if shrunk {
		t.Error("coarsen matched vertices with no edges")
	}
}

func TestMultilevelPathLargeGraph(t *testing.T) {
	// Force the coarsening path (n > CoarsenTo) on a graph with known
	// cluster structure.
	n := 200
	h := New(uniform(n, 1))
	rng := rand.New(rand.NewSource(5))
	// Two clusters of 100, dense inside, sparse across.
	for e := 0; e < 2000; e++ {
		c := rng.Intn(2) * 100
		mustAdd(t, h, []int{c + rng.Intn(100), c + rng.Intn(100)}, 10)
	}
	for e := 0; e < 20; e++ {
		mustAdd(t, h, []int{rng.Intn(100), 100 + rng.Intn(100)}, 1)
	}
	assign, cut, _, err := PartitionK(context.Background(), h, 2, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if cut > 100 {
		t.Errorf("multilevel cut = %d, want close to 20 (the cross edges)", cut)
	}
	agree := 0
	for i := 0; i < 100; i++ {
		if assign[i] == assign[0] {
			agree++
		}
	}
	if agree < 90 {
		t.Errorf("cluster A scattered: %d/100 in dominant part", agree)
	}
}

func TestFMImprovesBadStart(t *testing.T) {
	// fmRefine must strictly improve a deliberately bad bisection of a
	// two-cluster graph.
	n := 20
	h := New(uniform(n, 1))
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			mustAdd(t, h, []int{i, j}, 5)
			mustAdd(t, h, []int{10 + i, 10 + j}, 5)
		}
	}
	mustAdd(t, h, []int{0, 10}, 1)
	// Interleaved start: every edge inside a cluster is cut.
	side := make([]int, n)
	for i := range side {
		side[i] = i % 2
	}
	before := cutOf(h, side)
	fmRefine(context.Background(), h, side, float64(n)/2, 0.10)
	after := cutOf(h, side)
	if after >= before {
		t.Errorf("FM did not improve: %d -> %d", before, after)
	}
	if after > 1 {
		t.Errorf("FM stuck at cut %d, optimum is 1", after)
	}
}

func TestInduceSubHypergraph(t *testing.T) {
	h := New([]int64{1, 2, 3, 4, 5})
	mustAdd(t, h, []int{0, 1, 2}, 2)
	mustAdd(t, h, []int{3, 4}, 3)
	mustAdd(t, h, []int{0, 4}, 4)
	sub, fromSub := induce(h, []int{0, 1, 2})
	if sub.NumVertices() != 3 {
		t.Fatalf("sub vertices = %d", sub.NumVertices())
	}
	if len(sub.Edges) != 1 || sub.Edges[0].Weight != 2 {
		t.Errorf("sub edges = %v (cross and external edges must vanish)", sub.Edges)
	}
	if sub.TotalVertexWeight() != 6 {
		t.Errorf("sub weight = %d, want 1+2+3", sub.TotalVertexWeight())
	}
	for i, orig := range fromSub {
		if h.VertexWeight[orig] != sub.VertexWeight[i] {
			t.Errorf("fromSub[%d] = %d weight mismatch", i, orig)
		}
	}
}
