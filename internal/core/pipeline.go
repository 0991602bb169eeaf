package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"

	"sitam/internal/compaction"
	"sitam/internal/hypergraph"
	"sitam/internal/obs"
	"sitam/internal/sicheck"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/tam"
)

// GroupingResult is the outcome of the two-dimensional compaction
// pipeline: the SI test groups ready for scheduling, plus the compacted
// patterns and statistics behind them.
type GroupingResult struct {
	// Groups holds the schedulable SI test groups: one per partition
	// part with at least one pattern, plus (for Parts > 1) a residual
	// group holding the patterns whose care cores span multiple parts.
	// The residual group, when present, is first.
	Groups []*sischedule.Group

	// GroupPatterns[i] holds the compacted patterns of Groups[i].
	GroupPatterns [][]*sifault.Pattern

	// PartOf maps core ID to partition part (0..Parts-1).
	PartOf map[int]int

	// Parts is the requested partition count g.
	Parts int

	// CutPatterns is the number of original patterns that fell into the
	// residual group (the weight of the hypergraph cut).
	CutPatterns int64

	// Stats aggregates the vertical compaction over all groups.
	Stats compaction.Stats

	// Partial reports that the compaction pipeline was degraded by a
	// done context: the partitioner skipped refinement and/or some
	// patterns were passed through uncompacted. The groups are still a
	// valid, schedulable cover of the full pattern set.
	Partial bool

	// Reason describes what was cut short when Partial is set.
	Reason string

	// Cause classifies the interruption when Partial is set.
	Cause StopCause
}

// TotalCompacted returns the total compacted pattern count across all
// groups.
func (g *GroupingResult) TotalCompacted() int {
	n := 0
	for _, ps := range g.GroupPatterns {
		n += len(ps)
	}
	return n
}

// GroupingOptions configures BuildGroups.
type GroupingOptions struct {
	// Parts is the number of hypergraph partition parts (the paper's
	// g). 1 disables horizontal compaction (pure pattern-count
	// reduction).
	Parts int

	// Seed drives the randomized partitioner.
	Seed int64

	// Tolerance is the partitioner's balance tolerance; zero uses the
	// partitioner default (0.10).
	Tolerance float64

	// Trace receives the grouping pipeline's search-trace events
	// (partitioning and per-group compaction spans); nil disables
	// tracing.
	Trace obs.Sink
}

// BuildGroupsCtx runs the paper's two-dimensional SI test-set
// compaction (Section 3): it partitions the cores into opts.Parts
// groups with a hypergraph partitioner (vertices: cores weighted by WOC
// count; hyperedges: patterns connecting their care cores, weighted by
// multiplicity), classifies each pattern into the part containing all
// its care cores or into the residual group, and then compacts every
// group separately with the greedy clique-cover heuristic.
//
// A done context degrades gracefully: the partitioner falls back to
// unrefined greedy bisections and the per-group compaction passes
// remaining patterns through unmerged. The result is then marked
// Partial but remains a valid, schedulable grouping covering every
// input pattern. The context's error is returned only when it is done
// before any work started.
//
//sitlint:detmerge-root
//sitlint:allow ctxflow — ctx reaches every compaction through the parallelFor closure and the partitioner directly; the loops here are linear bookkeeping
func BuildGroupsCtx(ctx context.Context, s *soc.SOC, patterns []*sifault.Pattern, opts GroupingOptions) (*GroupingResult, error) {
	if opts.Parts < 1 {
		return nil, fmt.Errorf("core: Parts must be >= 1, got %d", opts.Parts)
	}
	sp := sifault.NewSpace(s)
	cores := s.Cores()
	if opts.Parts > len(cores) {
		return nil, fmt.Errorf("core: Parts=%d exceeds core count %d", opts.Parts, len(cores))
	}
	// Caller-built patterns may reference positions outside the SOC's
	// WOC space or care about nothing; validate up front so bad input
	// surfaces as an error here instead of a panic inside the care-core
	// scan below.
	for i, p := range patterns {
		if err := p.Validate(sp); err != nil {
			return nil, fmt.Errorf("core: pattern %d: %w", i, err)
		}
		if len(p.Care) == 0 {
			return nil, fmt.Errorf("core: pattern %d has no care positions", i)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Hyperedges: one walk per pattern yields its care cores as sorted
	// vertices (cores are numbered in position order), and patterns with
	// equal pin sets share one edge weighted by their multiplicity.
	weights := make([]int64, len(cores))
	for i, c := range cores {
		weights[i] = int64(c.WOC())
	}
	edgeOf := make([]int32, len(patterns))
	edgeID := make(map[string]int32)
	var (
		edgeKeys   []string
		edgePins   [][]int
		edgeWeight []int64
		pins       []int
		key        []byte
	)
	for i, p := range patterns {
		pins = sp.AppendCareBlocks(pins[:0], p)
		key = appendPinKey(key[:0], pins)
		id, ok := edgeID[string(key)]
		if !ok {
			id = int32(len(edgePins))
			edgeID[string(key)] = id
			edgeKeys = append(edgeKeys, string(key))
			edgePins = append(edgePins, append([]int(nil), pins...))
			edgeWeight = append(edgeWeight, 0)
		}
		edgeOf[i] = id
		edgeWeight[id] += int64(p.Weight)
	}

	assign := make([]int, len(cores)) // all zero for Parts == 1
	partitionCut := false
	if opts.Parts > 1 {
		h := hypergraph.New(weights)
		order := make([]int32, len(edgePins))
		for i := range order {
			order[i] = int32(i)
		}
		// Deterministic edge order: by pin key.
		sort.Slice(order, func(a, b int) bool { return edgeKeys[order[a]] < edgeKeys[order[b]] })
		for _, id := range order {
			if err := h.AddEdge(edgePins[id], edgeWeight[id]); err != nil {
				return nil, err
			}
		}
		var err error
		assign, _, partitionCut, err = hypergraph.PartitionK(ctx, h, opts.Parts, hypergraph.Options{
			Seed:      opts.Seed,
			Tolerance: opts.Tolerance,
			Trace:     opts.Trace,
		})
		if err != nil {
			return nil, err
		}
	}

	res := &GroupingResult{Parts: opts.Parts, PartOf: make(map[int]int, len(cores))}
	for i, c := range cores {
		res.PartOf[c.ID] = assign[i]
	}

	// Buckets in group order: the residual one first (for Parts > 1),
	// then one per part. Every edge lies inside one part or spans
	// several, so classifying edges classifies their patterns, and a
	// bucket's cores are the union of its edges' pins — the care cores
	// of its compacted patterns, since merging unions care positions.
	// The residual group comes first: it involves (nearly) every core,
	// so scheduling it early keeps Algorithm 1's packing tight.
	first := 0 // bucket of part 0
	names := make([]string, 0, opts.Parts+1)
	if opts.Parts > 1 {
		first = 1
		names = append(names, "RES")
	}
	for part := 0; part < opts.Parts; part++ {
		names = append(names, fmt.Sprintf("G%d", part+1))
	}
	edgeBucket := make([]int, len(edgePins))
	inBucket := make([]bool, len(names)*len(cores))
	for id, pins := range edgePins {
		bk := first + assign[pins[0]]
		for _, v := range pins[1:] {
			if assign[v] != assign[pins[0]] {
				bk = 0
				break
			}
		}
		edgeBucket[id] = bk
		for _, v := range pins {
			inBucket[bk*len(cores)+v] = true
		}
	}
	buckets := make([][]*sifault.Pattern, len(names))
	for i, p := range patterns {
		bk := edgeBucket[edgeOf[i]]
		if bk < first {
			res.CutPatterns += int64(p.Weight)
		}
		buckets[bk] = append(buckets[bk], p)
	}

	// Compact the buckets concurrently, largest first. Each traces into
	// its own buffer, drained in group order, so the trace is the
	// serial one up to span durations.
	type compacted struct {
		ps    []*sifault.Pattern
		stats compaction.Stats
		cut   bool
	}
	out := make([]compacted, len(buckets))
	var locals []*obs.Local
	if opts.Trace != nil {
		locals = make([]*obs.Local, len(buckets))
	}
	var todo []int
	for bk, ps := range buckets {
		if len(ps) > 0 {
			todo = append(todo, bk)
			if locals != nil {
				locals[bk] = obs.NewLocal()
			}
		}
	}
	sort.SliceStable(todo, func(a, b int) bool { return len(buckets[todo[a]]) > len(buckets[todo[b]]) })
	parallelFor(runtime.GOMAXPROCS(0), len(todo), func(_, i int) {
		bk := todo[i]
		var sink obs.Sink
		if locals != nil {
			sink = locals[bk]
		}
		o := &out[bk]
		o.ps, o.stats, o.cut = compaction.Greedy(ctx, sp, buckets[bk], sink, names[bk])
	})
	obs.Drain(opts.Trace, locals...)

	compactionCut := false
	for bk, o := range out {
		if len(buckets[bk]) == 0 {
			continue
		}
		compactionCut = compactionCut || o.cut
		res.Stats.Original += o.stats.Original
		res.Stats.Compacted += o.stats.Compacted
		res.Stats.Passes += o.stats.Passes
		var ids []int
		for v, c := range cores {
			if inBucket[bk*len(cores)+v] {
				ids = append(ids, c.ID)
			}
		}
		sort.Ints(ids)
		res.Groups = append(res.Groups, &sischedule.Group{
			Name:     names[bk],
			Cores:    ids,
			Patterns: int64(len(o.ps)),
		})
		res.GroupPatterns = append(res.GroupPatterns, o.ps)
	}
	if partitionCut || compactionCut {
		res.Partial = true
		res.Cause = CauseOf(ctx.Err())
		switch {
		case partitionCut && compactionCut:
			res.Reason = stopReason(ctx.Err(), "partitioning and compaction")
		case partitionCut:
			res.Reason = stopReason(ctx.Err(), "partitioning")
		default:
			res.Reason = stopReason(ctx.Err(), "compaction")
		}
	}
	return res, nil
}

// appendPinKey appends the edge key of a sorted pin list: three
// little-endian bytes per pin.
func appendPinKey(b []byte, pins []int) []byte {
	for _, p := range pins {
		b = append(b, byte(p), byte(p>>8), byte(p>>16))
	}
	return b
}

// ErrInternal marks a library fault: a result that failed its own
// self-check, or (through the facade's guard) a recovered panic.
var ErrInternal = errors.New("sitam: internal error")

// Finish assembles the Result of an optimization run: it evaluates the
// final architecture's breakdown and SI schedule (emitting the
// si_group_scheduled events when the engine traces), checks that
// schedule with the independent checker, snapshots the cache counters
// and metrics onto the result, and carries the anytime status. Every
// entry point that produces a Result funnels through it.
func (e *Engine) Finish(arch *tam.Architecture, st Status, groups []*sischedule.Group, m sischedule.Model, cache *CachedEvaluator) (*Result, error) {
	cons, err := CompileSOCConstraints(arch.SOC, groups)
	if err != nil {
		return nil, err
	}
	bd, sched, err := EvaluateBreakdownConsObs(arch, groups, m, cons, e.Trace)
	if err != nil {
		return nil, err
	}
	if err := checkSchedule(arch, groups, m, sched); err != nil {
		return nil, err
	}
	res := &Result{
		Architecture: arch, Breakdown: bd, Schedule: sched,
		Partial: st.Partial, Reason: st.Reason, Cause: st.Cause,
	}
	if cache != nil {
		res.Cache = cache.Stats()
	}
	res.Metrics = e.snapshotMetrics(cache)
	return res, nil
}

// checkSchedule validates sched with sicheck, which shares no code
// with the scheduler that built it. The architecture, groups, cost
// model and the SOC's raw constraint stanza are restated as plain
// data; groups are named by their index so that duplicate
// caller-chosen names cannot confuse the slot matching. A failure is
// a library fault and wraps ErrInternal.
func checkSchedule(a *tam.Architecture, groups []*sischedule.Group, m sischedule.Model, sched *sischedule.Schedule) error {
	inst := &sicheck.Instance{WOC: make(map[int]int, a.SOC.NumCores()), Bypass: m.Bypass, Overhead: m.Overhead}
	for _, c := range a.SOC.Cores() {
		inst.WOC[c.ID] = c.WOC()
	}
	for _, r := range a.Rails {
		inst.Rails = append(inst.Rails, sicheck.Rail{Width: r.Width, Cores: r.Cores})
	}
	names := make(map[*sischedule.Group]string, len(groups))
	for i, g := range groups {
		names[g] = fmt.Sprintf("#%d %s", i, g.Name)
		inst.Groups = append(inst.Groups, sicheck.Group{Name: names[g], Cores: g.Cores, Patterns: g.Patterns})
	}
	if cs := a.SOC.Constraints; cs != nil {
		inst.PowerBudget = cs.PowerBudget
		inst.CorePower = cs.CorePower
		for _, pr := range cs.Precedences {
			inst.Precedences = append(inst.Precedences, [2]int{pr.Before, pr.After})
		}
		inst.Exclusions = cs.Exclusions
	}
	slots := make([]sicheck.Slot, len(sched.Slots))
	for i, sl := range sched.Slots {
		slots[i] = sicheck.Slot{Group: names[sl.Group], Begin: sl.Begin, End: sl.End}
	}
	if err := inst.Check(slots, sched.TotalSI); err != nil {
		return fmt.Errorf("%w: core: schedule self-check: %v", ErrInternal, err)
	}
	return nil
}

// snapshotMetrics copies the registry (when attached) into plain data
// and adds the counters every run has regardless of a registry: total
// evaluations, the cache totals, and the incremental evaluator's
// recompute accounting.
func (e *Engine) snapshotMetrics(cache *CachedEvaluator) *obs.Snapshot {
	snap := e.Metrics.Snapshot() // nil-safe: empty snapshot without a registry
	snap.Counters["evals"] = e.evalCount()
	if cache != nil {
		st := cache.Stats()
		snap.Counters["cache_hits"] = st.Hits
		snap.Counters["cache_misses"] = st.Misses
		snap.Counters["cache_loads"] = st.Loads
		snap.Counters["cache_evictions"] = st.Evictions
		snap.Gauges["cache_entries"] = int64(st.Entries)
	}
	if inc, ok := innerEvaluator(e.Eval).(*IncrementalSIEvaluator); ok {
		st := inc.Stats()
		snap.Counters["eval_dirty_rails"] = st.DirtyRails
		snap.Counters["eval_rails_recomputed"] = st.RailsRecomputed
		snap.Counters["eval_rails_memoized"] = st.RailsMemoized
		snap.Counters["eval_groups_recomputed"] = st.GroupsRecomputed
		snap.Counters["eval_groups_memoized"] = st.GroupsMemoized
	}
	return snap
}

// innerEvaluator unwraps the memoization layer, exposing the evaluator
// the engine ultimately scores with.
func innerEvaluator(eval Evaluator) Evaluator {
	if c, ok := eval.(*CachedEvaluator); ok {
		return c.Inner
	}
	return eval
}

// Result is the outcome of a TAM optimization run: the designed
// architecture, its time breakdown and the SI schedule on it.
type Result struct {
	Architecture *tam.Architecture
	Breakdown    Breakdown
	Schedule     *sischedule.Schedule

	// Partial reports that the optimization was interrupted by a done
	// context and Architecture is the best solution found so far rather
	// than the converged one. It is still a valid, schedulable
	// architecture; Breakdown and Schedule describe it exactly.
	Partial bool

	// Reason describes what was interrupted when Partial is set, e.g.
	// "deadline exceeded during bottom-up merge".
	Reason string

	// Cause classifies the interruption when Partial is set: deadline
	// expiry, cancellation or budget exhaustion.
	Cause StopCause

	// Cache holds the evaluation-cache counters of the run, when the
	// optimization ran with memoization (TAMOptimizationWith and the
	// cfg-aware facade entry points); zero otherwise.
	Cache CacheStats

	// Metrics is the run's metrics snapshot. Always non-nil on results
	// assembled by the engine: it carries at least the "evals" counter
	// and, with memoization, the cache totals; runs configured with a
	// metrics registry add the pool counters and phase-duration
	// histograms.
	Metrics *obs.Snapshot
}
