package main

import (
	"runtime"
	"runtime/debug"
	"time"

	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/inference"
	"inferturbo/internal/tensor"
)

// logitTol is the repository's cross-backend tolerance: Pregel, MapReduce
// and the reference forward sum messages in different orders.
const logitTol = 2e-3

// batchOptions are the full-graph pass options of every workload: the
// cmd/infer default of 16 workers, on goroutines, with all three hub
// strategies on.
func batchOptions() inference.Options {
	return inference.Options{NumWorkers: 16, Parallel: true, PartialGather: true, Broadcast: true, ShadowNodes: true}
}

// passRecord is one timed full-graph pass.
type passRecord struct {
	wall   time.Duration
	traced bool
	// Superstep boundaries of a traced Pregel pass: prep is entry to the
	// first hook, steps lie between hooks, drain is last hook to return.
	prep, drain time.Duration
	steps       []time.Duration
	// Runtime deltas around the pass (traced runs only).
	allocMB, allocs, gcPauseMs float64
	stats                      inference.Stats
}

type memSnap struct{ alloc, mallocs, pauseNs uint64 }

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.TotalAlloc, m.Mallocs, m.PauseTotalNs}
}

func (rec *passRecord) memDelta(a, b memSnap) {
	rec.allocMB = float64(b.alloc-a.alloc) / (1 << 20)
	rec.allocs = float64(b.mallocs - a.mallocs)
	rec.gcPauseMs = float64(b.pauseNs-a.pauseNs) / 1e6
}

// pregelPass runs and times one RunPregel pass. A traced pass records its
// superstep boundaries through SuperstepHook and its allocations. Every
// timed pass starts from a collected heap, so no pass pays for the garbage
// of the one before it (a MapReduce pass leaves a GB behind).
func (r *run) pregelPass(m *gas.Model, g *graph.Graph, traced bool) (*passRecord, *inference.Result, error) {
	opts := batchOptions()
	var hooks []time.Time
	var hookSteps []int
	if traced {
		// The hook runs on the engine goroutine; RunPregel's return orders
		// its appends before the reads below.
		opts.SuperstepHook = func(step int) {
			hooks = append(hooks, time.Now())
			hookSteps = append(hookSteps, step)
		}
	}
	runtime.GC()
	var before memSnap
	if traced {
		before = readMem()
	}
	start := time.Now()
	res, err := inference.RunPregel(m, g, opts)
	end := time.Now()
	if err != nil {
		return nil, nil, err
	}
	rec := &passRecord{wall: end.Sub(start), traced: traced, stats: res.Stats}
	if traced {
		// The spans below tile the pass by construction, so their sum is
		// its wall time; what can go wrong is the hook itself. It must fire
		// once at the start of every superstep the engine ran, in order.
		inOrder := len(hookSteps) == res.Stats.Supersteps
		for i, step := range hookSteps {
			inOrder = inOrder && step == i
		}
		r.check(inOrder, "traced pregel pass: SuperstepHook steps %v, engine ran %d supersteps", hookSteps, res.Stats.Supersteps)
		rec.memDelta(before, readMem())
		pass := r.tr.record(0, 0, 0, "inference.RunPregel", start, end)
		prev := start
		for i, h := range hooks {
			if i == 0 {
				rec.prep = h.Sub(start)
				r.tr.record(0, pass, 0, "pregel.prep", start, h)
			} else {
				rec.steps = append(rec.steps, h.Sub(prev))
				r.tr.record(0, pass, 0, "pregel.superstep", prev, h)
			}
			prev = h
		}
		if len(hooks) > 0 {
			// Drain is the last hook to RunPregel's return: the final
			// superstep plus result assembly, which no hook splits.
			rec.drain = end.Sub(prev)
			r.tr.record(0, pass, 0, "pregel.drain", prev, end)
		}
	}
	return rec, res, nil
}

// mapReducePass runs and times one RunMapReduce pass.
func (r *run) mapReducePass(m *gas.Model, g *graph.Graph, traced bool) (*passRecord, *inference.Result, error) {
	runtime.GC()
	var before memSnap
	if traced {
		before = readMem()
	}
	start := time.Now()
	res, err := inference.RunMapReduce(m, g, batchOptions())
	end := time.Now()
	if err != nil {
		return nil, nil, err
	}
	rec := &passRecord{wall: end.Sub(start), traced: traced, stats: res.Stats}
	if traced {
		rec.memDelta(before, readMem())
		r.tr.record(0, 0, 0, "inference.RunMapReduce", start, end)
	}
	return rec, res, nil
}

// batchWarmup runs one untimed pass per backend and checks them: both must
// match the reference forward within logitTol and agree on classes. Every
// timed pass must then reproduce its backend's warm-up logits bit for bit.
func (r *run) batchWarmup() error {
	g, m := r.bg, r.model
	ref := inference.ReferenceForward(m, g)
	_, pg0, err := r.pregelPass(m, g, false)
	if err != nil {
		return err
	}
	_, mr0, err := r.mapReducePass(m, g, false)
	if err != nil {
		return err
	}
	r.check(pg0.Logits.AllClose(ref, logitTol), "pregel logits differ from the reference forward beyond %g", logitTol)
	r.check(mr0.Logits.AllClose(ref, logitTol), "mapreduce logits differ from the reference forward beyond %g", logitTol)
	r.check(classesAgree(pg0.Classes, mr0.Classes, ref), "pregel and mapreduce classes disagree")
	r.pg0, r.mr0 = pg0, mr0
	return nil
}

// batchSlice runs timed full-graph passes until deadline, at least one per
// backend, giving each backend about half of the run's pass time. Each
// pass's resident peak is filed under its backend. A traced run times
// traced and untraced Pregel passes in back-to-back pairs, alternating which
// goes first, so the tracing overhead is measured inside one run.
func (r *run) batchSlice(deadline time.Time) error {
	g, m := r.bg, r.model
	runtime.GC()
	debug.FreeOSMemory()
	_ = resetPeakRSS()
	didPG, didMR := false, false
	for time.Now().Before(deadline) || !didPG || !didMR {
		pregelNext := r.pgTime <= r.mrTime
		if !time.Now().Before(deadline) {
			pregelNext = !didPG
		}
		if pregelNext {
			order := []bool{false}
			if r.tr != nil {
				order = []bool{len(r.pregel)%4 == 0, len(r.pregel)%4 != 0}
			}
			for _, traced := range order {
				rec, res, err := r.pregelPass(m, g, traced)
				if err != nil {
					return err
				}
				r.check(res.Logits.Equal(r.pg0.Logits), "pregel pass %d logits not bit-identical to the first", len(r.pregel))
				r.pregel = append(r.pregel, rec)
				r.pgTime += rec.wall
				if err := r.notePeak("pregel"); err != nil {
					return err
				}
			}
			didPG = true
		} else {
			rec, res, err := r.mapReducePass(m, g, r.tr != nil)
			if err != nil {
				return err
			}
			r.check(res.Logits.Equal(r.mr0.Logits), "mapreduce pass %d logits not bit-identical to the first", len(r.mapreduce))
			r.mapreduce = append(r.mapreduce, rec)
			r.mrTime += rec.wall
			if err := r.notePeak("mapreduce"); err != nil {
				return err
			}
			didMR = true
		}
	}
	return nil
}

// classesAgree compares two backends' argmax classes on every node whose
// reference top-two margin exceeds twice the logit tolerance; below that
// margin, tolerance-level differences may legitimately flip the argmax.
func classesAgree(a, b []int32, ref *tensor.Matrix) bool {
	for v := range a {
		if a[v] != b[v] && topMargin(ref.Row(v)) > 2*logitTol {
			return false
		}
	}
	return true
}

func topMargin(row []float32) float32 {
	best, second := float32(-1e30), float32(-1e30)
	for _, x := range row {
		if x > best {
			best, second = x, best
		} else if x > second {
			second = x
		}
	}
	return best - second
}

// passWalls returns the wall times in seconds of the passes whose traced
// flag equals traced.
func passWalls(recs []*passRecord, traced bool) []float64 {
	var out []float64
	for _, r := range recs {
		if r.traced == traced {
			out = append(out, r.wall.Seconds())
		}
	}
	return out
}
