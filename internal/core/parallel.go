package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sitam/internal/obs"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/tam"
)

// This file implements the parallel candidate evaluation layer: the
// merge candidates of mergeTAMs, the per-rail trials of
// distributeFreeWires, the move candidates of coreReshuffle and
// independent ILS restarts are all mutually independent, so they fan
// out across a bounded worker pool. There is one code path at every
// worker count: parallelFor runs a batch on the calling goroutine when
// the engine has one worker, and on a pool otherwise. Selection is the
// same either way: every batch is enumerated in the serial iteration
// order, all candidates are scored, and the reduction walks the
// results in that order applying the serial comparison, so the winner
// (and every tie-break) is the one a plain loop would have picked.

// resolveWorkers maps ParallelConfig.Workers to a pool size: 0 means
// runtime.GOMAXPROCS(0) and negative values mean 1.
func resolveWorkers(w int) int {
	switch {
	case w > 0:
		return w
	case w == 0:
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// poolMetrics are the candidate pool's counters, set by
// NewParallelEngine when a metrics registry is attached. busyNS sums
// per-candidate evaluation time across workers and wallNS the batches'
// elapsed time, so busy/(wall·workers) says how busy the workers were.
// It is not a speedup: DESIGN §6 has the measured numbers.
type poolMetrics struct {
	batches, candidates, busyNS, wallNS *obs.Counter
}

// candResult is one candidate's score: the objective, an auxiliary
// metric some reductions need (e.g. the widened rail's utilized time
// in distributeFreeWires), and the evaluation error if any.
type candResult struct {
	obj int64
	aux int64
	err error
}

// parallelFor runs fn(i) for i in [0, n) on up to k goroutines fed by
// a shared counter. fn receives the worker index so callers can keep
// per-worker scratch state. With k ≤ 1 or n ≤ 1 it is a plain loop on
// the calling goroutine. Otherwise panics inside fn are captured and
// the one with the lowest index, which is the one the plain loop would
// raise, is re-raised on the caller's goroutine after all workers
// drain, so the engine's panic surface is the same at any worker count
// and the facade guard still applies.
func parallelFor(k, n int, fn func(worker, i int)) {
	if k > n {
		k = n
	}
	if k <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	panics := make([]any, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(k)
	for w := 0; w < k; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
						}
					}()
					fn(worker, i)
				}()
			}
		}(w)
	}
	wg.Wait()
	for i := range panics {
		if panics[i] != nil {
			panic(panics[i])
		}
	}
}

// mapCandidates scores n candidate architectures derived from base on
// the engine's workers. job receives a scratch architecture already
// reset to a copy of base plus the candidate index; it must mutate
// only the scratch (each worker owns one scratch, reused across its
// candidates). The context is checked before every candidate.
//
// The returned slice is index-aligned with the candidates. On error
// the result is nil and the error is the lowest-index one, which is
// the error a plain loop would have surfaced first. Candidates beyond
// the lowest failure so far are skipped, so with one worker the batch
// stops at its first error exactly like that loop.
//
//sitlint:detmerge-root
func (e *Engine) mapCandidates(ctx context.Context, base *tam.Architecture, n int, job func(cand *tam.Architecture, i int) (int64, int64, error)) ([]candResult, error) {
	if n == 0 {
		return nil, nil
	}
	timed := e.pool.batches != nil
	var wallStart time.Time
	if timed {
		wallStart = time.Now() //sitlint:allow detrand — wall/busy profiling metrics only, never the objective
	}
	k := max(1, min(e.workers, n))
	res := make([]candResult, n)
	scratches := make([]*tam.Architecture, k)
	busy := make([]int64, k)
	var failed atomic.Int64 // lowest failing candidate index, n while none failed
	failed.Store(int64(n))
	parallelFor(k, n, func(worker, i int) {
		if int64(i) > failed.Load() {
			return
		}
		err := ctx.Err()
		if err == nil {
			scratch := scratches[worker]
			if scratch == nil {
				scratch = &tam.Architecture{}
				scratches[worker] = scratch
			}
			scratch.CopyFrom(base)
			var t0 time.Time
			if timed {
				t0 = time.Now() //sitlint:allow detrand — per-candidate busy-time profiling only, never the objective
			}
			res[i].obj, res[i].aux, err = job(scratch, i)
			if timed {
				busy[worker] += int64(time.Since(t0))
			}
		}
		if err != nil {
			res[i].err = err
			for f := failed.Load(); int64(i) < f && !failed.CompareAndSwap(f, int64(i)); f = failed.Load() {
			}
		}
	})
	if timed {
		for _, b := range busy {
			e.pool.busyNS.Add(b)
		}
		e.pool.wallNS.Add(int64(time.Since(wallStart)))
		e.pool.batches.Inc()
		e.pool.candidates.Add(int64(n))
	}
	if f := failed.Load(); f < int64(n) {
		return nil, res[f].err
	}
	return res, nil
}

// rebuild reconstructs the winning candidate: jobs only score
// candidates into per-worker scratches, so the selected architecture
// is rebuilt once from the base — one clone per improving batch
// instead of one per candidate. With a memoized evaluator the
// re-evaluation inside job is a cache hit.
func rebuild(base *tam.Architecture, i int, job func(cand *tam.Architecture, i int) (int64, int64, error)) (*tam.Architecture, error) {
	cand := base.Clone()
	if _, _, err := job(cand, i); err != nil {
		return nil, err
	}
	return cand, nil
}

// ParallelConfig bundles the concurrency, memoization and
// observability knobs of the optimization entry points.
type ParallelConfig struct {
	// Workers bounds concurrent candidate evaluations: 0 means
	// runtime.GOMAXPROCS(0), 1 scores every batch on the calling
	// goroutine. The result and the trace do not depend on it.
	Workers int

	// CacheSize is the evaluation cache capacity in entries: 0 selects
	// DefaultCacheSize, negative disables memoization.
	CacheSize int

	// MaxEvals bounds the objective evaluations of the run; 0 means
	// unlimited. An exhausted budget ends the run like a cancelled
	// context: partial result, CauseBudget.
	MaxEvals int64

	// Trace collects the structured search-trace of the run. nil (the
	// default) disables tracing. The trace is the same at every worker
	// count up to the dur_ns field; cache hit/miss totals are on
	// Result.Metrics, not in the trace.
	Trace *obs.Tracer

	// Metrics collects the run's counters, gauges and phase-duration
	// histograms; a snapshot lands on Result.Metrics. nil disables
	// collection.
	Metrics *obs.Registry

	// Persist, when non-nil, backs the evaluation cache with a
	// persistent cache file: its entries seed the cache before the run
	// (counted as CacheStats.Loads, not hits) and every miss is
	// appended for the next process. Ignored when CacheSize is
	// negative. The CacheFile outlives the run — the caller owns its
	// lifecycle (a daemon keeps one file across jobs and restarts).
	Persist *CacheFile
}

// NewParallelEngine builds an Engine whose candidate evaluations run
// on a cfg.Workers-sized pool against a shared memoization cache. The
// returned CachedEvaluator exposes the cache counters; it is nil when
// cfg.CacheSize is negative.
func NewParallelEngine(s *soc.SOC, wmax int, eval Evaluator, cfg ParallelConfig) (*Engine, *CachedEvaluator, error) {
	var cache *CachedEvaluator
	if cfg.CacheSize >= 0 {
		cache = NewCachedEvaluator(eval, cfg.CacheSize)
		eval = cache
	}
	eng, err := NewEngine(s, wmax, eval)
	if err != nil {
		return nil, nil, err
	}
	eng.workers = resolveWorkers(cfg.Workers)
	eng.MaxEvals = cfg.MaxEvals
	if cfg.Trace != nil {
		eng.Trace = cfg.Trace
	}
	if cache != nil && cfg.Persist != nil {
		cache.AttachPersistent(cfg.Persist)
		if cfg.Trace != nil {
			cfg.Trace.Emit(obs.Event{Type: obs.CacheLoad, N: cache.Stats().Loads})
		}
	}
	if cfg.Metrics != nil {
		eng.Metrics = cfg.Metrics
		eng.pool = poolMetrics{
			batches:    cfg.Metrics.Counter("pool_batches"),
			candidates: cfg.Metrics.Counter("pool_candidates"),
			busyNS:     cfg.Metrics.Counter("pool_busy_ns"),
			wallNS:     cfg.Metrics.Counter("pool_wall_ns"),
		}
		cfg.Metrics.Gauge("pool_workers").Set(int64(eng.workers))
	}
	return eng, cache, nil
}

// TAMOptimizationWith is the paper's Algorithm 2: it designs a
// TestRail architecture of total width wmax for SOC s minimizing
// T_soc = T_in + T_si over the given SI test groups, and returns the
// architecture with its objective breakdown, SI schedule, cache
// statistics and metrics snapshot. It is Solve with AlgoSI.
func TAMOptimizationWith(ctx context.Context, s *soc.SOC, wmax int, groups []*sischedule.Group, m sischedule.Model, cfg ParallelConfig) (*Result, error) {
	return Solve(ctx, s, wmax, groups, m, Algo{Kind: AlgoSI}, cfg)
}
