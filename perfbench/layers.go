package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/inference"
	"inferturbo/internal/serve"
	"inferturbo/internal/tensor"
)

// replayReps is how often the traced run repeats each whole-graph layer
// call; the per-layer metric is the median.
const replayReps = 3

// traceTolerance bounds the tracing overhead the reconciliation accepts.
// On the two-vCPU machine the benchmark was built on, the difference of the
// traced and untraced medians reached 24% over five passes each under 19%
// host CPU steal; the paired estimate in tracingOverhead is steadier, and
// a gross fault (a hook doing real work, spans missing a stage) exceeds
// this bound.
const traceTolerance = 0.5

// maxReplayQueries bounds the query roots the traced run replays.
const maxReplayQueries = 200

// timeIt returns the median wall time in ms of reps calls of f.
func timeIt(reps int, f func()) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		xs = append(xs, ms(time.Since(start)))
	}
	return median(xs)
}

// layerSample holds what the traced run's replay of lower-layer public
// calls measured, on the workload's exact inputs.
type layerSample struct {
	decodeMs, gatherIndexMs            float64
	khopMs, khopNodes                  []float64
	applyDeltaMs                       []float64
	matmulMs, matmulFlops, gatherSumMs float64
	gasGatherMs, gasApplyMs, forwardMs float64
	queryComputeMs                     []float64
	walAppendMs, mutateDecodeMs        []float64
}

// replayLayers times the public calls of each layer the workload crosses:
// graph decode, k-hop induction, ApplyDelta and the gather index; the dense
// kernels at each layer's shape; the GAS gather, apply and whole-graph
// forward; query-subgraph passes; WAL appends of the server's own records;
// and the JSON decode of each mutate body.
func (r *run) replayLayers() error {
	l := &r.layers
	g, m, sg := r.bg, r.model, r.sg
	l.decodeMs = timeIt(replayReps, func() { _, _ = graph.Decode(bytes.NewReader(r.in.batchGraph)) })
	l.gatherIndexMs = timeIt(replayReps, func() { graph.BuildGatherIndex(g) })

	// Dense and sparse kernels at each layer's apply shape, then the GAS
	// stages on the real layer states.
	src, dst := g.EdgeList()
	rng := tensor.NewRNG(r.seed)
	state := g.Features
	pool := tensor.NewPool()
	for _, layer := range m.Layers {
		in, out := layer.InDim(), layer.OutDim()
		a, w := tensor.New(g.NumNodes, in), tensor.New(in, out)
		rng.Uniform(a, -1, 1)
		rng.Uniform(w, -1, 1)
		// Each SAGE layer applies two in x out transforms per node.
		t := timeIt(replayReps, func() { tensor.MatMul(a, w); tensor.MatMul(a, w) })
		l.matmulMs += t
		l.matmulFlops += 2 * 2 * float64(g.NumNodes) * float64(in) * float64(out)
		l.gatherSumMs += timeIt(replayReps, func() { tensor.GatherSegmentSum(state, src, dst, g.NumNodes) })
		var aggr *gas.Aggregated
		l.gasGatherMs += timeIt(replayReps, func() {
			aggr = gas.FusedScatterGather(layer.Reduce(), state, src, dst, g.NumNodes)
		})
		var next *tensor.Matrix
		l.gasApplyMs += timeIt(replayReps, func() { next = gas.ApplyNodePooled(layer, state, aggr, pool) })
		state = next
	}
	l.forwardMs = timeIt(replayReps, func() { inference.ReferenceForward(m, g) })

	// The mixed phase's query roots: k-hop induction and the query pass
	// with the server's query options.
	hops := m.NumLayers()
	var induceMs []float64
	n := 0
	var mixed []event
	for _, plan := range r.in.rounds {
		mixed = append(mixed, plan.mixed...)
	}
	for _, e := range mixed {
		if e.kind != evQuery || n >= maxReplayQueries {
			continue
		}
		n++
		var q serve.QueryRequest
		if err := json.Unmarshal(e.body, &q); err != nil {
			return fmt.Errorf("replay query body: %w", err)
		}
		roots := q.Roots
		var virt *graph.VirtualRoot
		if q.ColdStart != nil {
			roots = append(roots, q.ColdStart.InNeighbors...)
			virt = &graph.VirtualRoot{Features: q.ColdStart.Features, InNeighbors: q.ColdStart.InNeighbors}
		}
		start := time.Now()
		sub := graph.KHop(sg, roots, graph.KHopOptions{Hops: hops})
		ind, err := sub.Induce(sg, virt)
		if err != nil {
			return fmt.Errorf("replay induce: %w", err)
		}
		induceMs = append(induceMs, ms(time.Since(start)))
		l.khopNodes = append(l.khopNodes, float64(ind.G.NumNodes))
		start = time.Now()
		if _, err := inference.RunPregel(m, ind.G, inference.Options{NumWorkers: 2, OutDegrees: ind.OutDegrees}); err != nil {
			return fmt.Errorf("replay query pass: %w", err)
		}
		l.queryComputeMs = append(l.queryComputeMs, ms(time.Since(start)))
	}
	l.khopMs = induceMs

	// Every acknowledged batch in order: ApplyDelta, the mutate body's JSON
	// decode, and a WAL append at the workload's sync mode on the session
	// directory's filesystem. The appended payloads are the records the
	// server wrote for the tail batches, read back before each restart, in
	// turn: the tail has the mixed phase's share of structural batches.
	if len(r.walPayloads) == 0 {
		return fmt.Errorf("replay WAL: the server's WAL held no records before any restart")
	}
	wal, _, err := checkpoint.OpenWAL(filepath.Join(r.work, "wal-replay"), refreshOptions().CheckpointSync)
	if err != nil {
		return fmt.Errorf("replay WAL: %w", err)
	}
	cur := sg
	for i, d := range r.in.batches[:r.acked.Load()] {
		start := time.Now()
		next, _, err := graph.ApplyDelta(cur, d)
		if err != nil {
			wal.Close()
			return fmt.Errorf("replay apply batch %d: %w", i, err)
		}
		l.applyDeltaMs = append(l.applyDeltaMs, ms(time.Since(start)))
		cur = next
		var req serve.MutateRequest
		start = time.Now()
		dec := json.NewDecoder(bytes.NewReader(r.in.bodies[i]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			wal.Close()
			return fmt.Errorf("replay decode batch %d: %w", i, err)
		}
		l.mutateDecodeMs = append(l.mutateDecodeMs, ms(time.Since(start)))
		payload := r.walPayloads[i%len(r.walPayloads)]
		start = time.Now()
		if err := wal.Append(uint64(i+1), payload); err != nil {
			wal.Close()
			return fmt.Errorf("replay WAL append: %w", err)
		}
		l.walAppendMs = append(l.walAppendMs, ms(time.Since(start)))
	}
	if err := wal.Close(); err != nil {
		return fmt.Errorf("replay WAL close: %w", err)
	}

	// Reconciliation: the traced passes' spans (prep, supersteps, drain)
	// must account for the same work as the untraced passes they are
	// interleaved with, so the tracing overhead stays within
	// traceTolerance; a hook that skipped or repeated supersteps fails the
	// check in pregelPass.
	overhead := tracingOverhead(r.pregel)
	r.check(math.Abs(overhead) <= traceTolerance,
		"traced pregel passes differ from untraced ones by %.0f%%, more than %.0f%%", 100*overhead, 100*traceTolerance)
	passS := median(passWalls(r.pregel, false))
	// The forward bound is a performance relation, not a property of any
	// output, so a miss is reported rather than counted as a failure.
	if passMs := 1e3 * passS; l.forwardMs > passMs {
		r.notes = append(r.notes, fmt.Sprintf("gas.forward_ms %.3f exceeds pass_s %.3f ms: the single-process forward is not a floor here", l.forwardMs, passMs))
	}
	return nil
}

// tracingOverhead is the median, over the traced run's adjacent pairs of
// one traced and one untraced Pregel pass, of traced/untraced - 1. The two
// passes of a pair run back to back, so a slow stretch of the host reaches
// both.
func tracingOverhead(recs []*passRecord) float64 {
	var xs []float64
	for i := 0; i+1 < len(recs); i += 2 {
		a, b := recs[i], recs[i+1]
		if a.traced == b.traced {
			continue
		}
		if b.traced {
			a, b = b, a
		}
		xs = append(xs, a.wall.Seconds()/b.wall.Seconds()-1)
	}
	return median(xs)
}

// perLayer assembles the per-layer metrics of a traced run.
func (r *run) perLayer() map[string]metric {
	l := &r.layers
	var traced []*passRecord
	for _, p := range r.pregel {
		if p.traced {
			traced = append(traced, p)
		}
	}
	col := func(recs []*passRecord, f func(*passRecord) float64) float64 {
		var xs []float64
		for _, p := range recs {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	st := traced[0].stats
	mrSt := r.mapreduce[0].stats
	passS := median(passWalls(r.pregel, false))
	tracedS := median(passWalls(r.pregel, true))
	deltaShare := 0.0
	for _, k := range r.refreshKinds {
		if k == string(inference.RefreshDelta) {
			deltaShare++
		}
	}
	if len(r.refreshKinds) > 0 {
		deltaShare /= float64(len(r.refreshKinds))
	}
	ss := r.serveStats
	batchSize := 0.0
	if ss.Batches > 0 {
		batchSize = float64(ss.BatchedJobs) / float64(ss.Batches)
	}
	khop, compute := median(l.khopMs), median(l.queryComputeMs)
	mixed := summarize("mixed", r.mixedOut)
	m := map[string]metric{
		"graph.decode_ms":       {l.decodeMs, "ms"},
		"graph.khop_ms":         {khop, "ms"},
		"graph.khop_p99_ms":     {quantile(l.khopMs, .99), "ms"},
		"graph.khop_nodes":      {median(l.khopNodes), "count"},
		"graph.apply_delta_ms":  {median(l.applyDeltaMs), "ms"},
		"graph.gather_index_ms": {l.gatherIndexMs, "ms"},

		"tensor.matmul_ms":     {l.matmulMs, "ms"},
		"tensor.matmul_gflops": {l.matmulFlops / (l.matmulMs * 1e6), "GFLOP/s"},
		"tensor.gather_sum_ms": {l.gatherSumMs, "ms"},

		"gas.gather_ms":  {l.gasGatherMs, "ms"},
		"gas.apply_ms":   {l.gasApplyMs, "ms"},
		"gas.forward_ms": {l.forwardMs, "ms"},

		"pregel.prep_ms":           {col(traced, func(p *passRecord) float64 { return ms(p.prep) }), "ms"},
		"pregel.superstep_ms":      {col(traced, func(p *passRecord) float64 { return ms(sumDur(p.steps)) }), "ms"},
		"pregel.superstep_max_ms":  {col(traced, func(p *passRecord) float64 { return ms(maxDur(p.steps)) }), "ms"},
		"pregel.drain_ms":          {col(traced, func(p *passRecord) float64 { return ms(p.drain) }), "ms"},
		"pregel.supersteps":        {float64(st.Supersteps), "count"},
		"pregel.traced_pass_ms":    {tracedS * 1e3, "ms"},
		"trace.overhead_pct":       {100 * tracingOverhead(r.pregel), "%"},
		"inference.messages_sent":  {float64(st.MessagesSent), "count"},
		"inference.bytes_sent":     {float64(st.BytesSent), "bytes"},
		"inference.remote_bytes":   {float64(st.RemoteBytes), "bytes"},
		"inference.combined_away":  {float64(st.CombinedAway), "count"},
		"inference.broadcast_hubs": {float64(st.BroadcastHubs), "count"},
		"inference.shadow_mirrors": {float64(st.ShadowMirrors), "count"},

		"inference.flops_imbalance":    {imbalance(st.WorkerFlops), "ratio"},
		"inference.bytes_in_imbalance": {imbalance(st.WorkerBytesIn), "ratio"},
		"inference.alloc_mb":           {col(traced, func(p *passRecord) float64 { return p.allocMB }), "MB"},
		"inference.allocs":             {col(traced, func(p *passRecord) float64 { return p.allocs }), "count"},
		"inference.gc_pause_ms":        {col(traced, func(p *passRecord) float64 { return p.gcPauseMs }), "ms"},
		"inference.overhead_x":         {passS * 1e3 / l.forwardMs, "ratio"},
		"inference.delta_active":       {median(r.deltaActive), "count"},
		"inference.delta_share":        {deltaShare, "share"},

		"mapreduce.alloc_mb":   {col(r.mapreduce, func(p *passRecord) float64 { return p.allocMB }), "MB"},
		"mapreduce.allocs":     {col(r.mapreduce, func(p *passRecord) float64 { return p.allocs }), "count"},
		"mapreduce.bytes_sent": {float64(mrSt.BytesSent), "bytes"},

		"checkpoint.wal_append_ms":     {median(l.walAppendMs), "ms"},
		"checkpoint.wal_append_p99_ms": {quantile(l.walAppendMs, .99), "ms"},
		"checkpoint.wal_bytes":         {median(r.walRecordBytes), "bytes"},
		"checkpoint.persist_ms":        {median(r.persistMs), "ms"},
		"checkpoint.replay_ms":         {median(r.replayMs), "ms"},

		"serve.query_compute_ms":  {compute, "ms"},
		"serve.query_wait_ms":     {quantile(r.mixedLat[evQuery], .5) - khop - compute, "ms"},
		"serve.batch_size":        {batchSize, "count"},
		"serve.mutate_decode_ms":  {median(l.mutateDecodeMs), "ms"},
		"serve.mixed_mutate_ms":   {quantile(r.mixedLat[evMutate], .5), "ms"},
		"serve.mixed_refresh_ms":  {median(r.mixedRefreshMs), "ms"},
		"serve.shed":              {float64(ss.Shed), "count"},
		"serve.degraded":          {float64(ss.Degraded), "count"},
		"serve.cancel_aborts":     {float64(ss.CancelAborts), "count"},
		"runtime.gc_pause_p99_ms": {r.gcPauses.p99(), "ms"},
		"runtime.heap_peak_mb":    {r.heapPeakMB, "MB"},
		"loadgen.late_p99_ms":     {mixed.LateP99Ms, "ms"},
		"loadgen.gen_late_p99_ms": {mixed.GenLateP99, "ms"},
	}
	for k, v := range r.tails() {
		m[k] = v
	}
	return m
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func maxDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		if d > t {
			t = d
		}
	}
	return t
}
