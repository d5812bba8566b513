package inference

import (
	"fmt"
	"sync"

	"inferturbo/internal/cluster"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/mapreduce"
	"inferturbo/internal/tensor"
)

// Record kinds flowing between MapReduce rounds. Unlike the Pregel backend,
// nothing stays resident between rounds: a node's state and its out-edge
// table are re-sent to itself every round, exactly the data flow the paper
// describes for this backend.
const (
	mrSelf      int32 = iota // the node's own state (or final logits)
	mrMsg                    // an in-edge message (possibly partially aggregated)
	mrOutEdges               // out-edge ids (ints), edge features (floats), original out-degree (count)
	mrBCPayload              // broadcast payload mailed to a reducer
	mrBCRef                  // broadcast reference: look up Src in the reducer's table
)

// mrRecordBytes prices a record on the wire: a broadcast reference is a
// fixed-size header, anything else its payloads plus a 16-byte header.
func mrRecordBytes(kind int32, floats, ints int) int64 {
	if kind == mrBCRef {
		return refBytes
	}
	return int64(4*floats + 4*ints + 16)
}

// mrDriver holds per-run state for the MapReduce backend. The run is a map
// phase plus one round per GNN layer. Task p writes the records it emits
// into row p of the extents — exts[p][r] is its extent for reducer r — and
// reducer r reads column r. A round is two barriers apart: every reducer
// first consumes its column (group, gather, apply, copy out its keys'
// out-edge records), then every task rewrites its row with the next
// round's records. One set of extents therefore serves the whole run.
type mrDriver struct {
	model     *gas.Model
	sg        *ShadowGraph
	opts      Options
	threshold int
	part      graph.Partitioner
	// owner and local place every vertex: its reducer and its dense index
	// among that reducer's keys (= its position in owned[owner]).
	owner, local []int32
	owned        [][]int32
	exts         [][]*mapreduce.Extent
	tasks        []*mrTask
}

// mrTask is one task's state: its shuffle writer, its grouped input, and
// the scratch its reduce reuses round to round. Only the task's goroutine
// touches it.
type mrTask struct {
	id   int
	prod *mapreduce.Producer
	in   []*mapreduce.Extent // the extents addressed to this task, by producer
	grp  mapreduce.Grouped
	bc   bcIndex
	pool *tensor.Pool
	aggr gas.Aggregated
	// Gather CSR: local key li's messages are pays[off[li]:off[li+1]];
	// self[li] is the grouped slot of its state row.
	off, counts []int32
	pays        [][]float32
	self        []int32
	// The round's new states, row li = local key li, and the keys'
	// out-edge records, copied out of the shuffle input so the extents can
	// be rewritten while the task scatters: key li's out-edges are
	// dsts[eOff[li]:eOff[li+1]], their features feats[fOff[li]:fOff[li+1]]
	// and its original out-degree deg[li].
	out             *tensor.Matrix
	eOff, fOff, deg []int32
	dsts            []int32
	feats           []float32
	// Scatter scratch.
	seen        []bool
	scaled      []float32
	flat        []float32
	state, edge tensor.Matrix
	bcHubs      int64
}

// mrTaskRound is one task's traffic and work in one round.
type mrTaskRound struct {
	inRecords, inBytes   int64
	outRecords, outBytes int64
	flops, peak          int64
}

// RunMapReduce executes full-graph inference of model over g on the
// MapReduce backend: one map phase plus one reduce round per GNN layer.
// Map, combine, shuffle and reduce all run per task, on goroutines under
// Options.Parallel.
func RunMapReduce(model *gas.Model, g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := validateModelGraph(model, g); err != nil {
		return nil, err
	}
	// The fault-tolerance surface is Pregel-only: rounds here have no
	// checkpoint boundary to resume from, so silently ignoring these options
	// would miscommunicate durability the backend doesn't provide.
	if opts.CheckpointDir != "" || opts.Resume || opts.Faults != nil {
		return nil, fmt.Errorf("inference: durable checkpoints, resume and fault plans require the Pregel backend")
	}
	// The serving hooks are Pregel-only too: rounds here have no superstep
	// boundary to poll cancellation at, and silently ignoring a degree
	// override would change results.
	if opts.Cancel != nil || opts.OutDegrees != nil {
		return nil, fmt.Errorf("inference: Cancel and OutDegrees require the Pregel backend")
	}
	defer applyTuning(opts)()
	threshold := opts.threshold(g)

	sg := IdentityShadow(g)
	if opts.ShadowNodes {
		sg = BuildShadowGraph(g, threshold)
	}
	d := newMRDriver(model, sg, opts, threshold)
	W := opts.NumWorkers

	// Map phase: initialize h^0, start the self/out-edge records cycling,
	// and scatter the first layer's messages.
	d.begin(0)
	if err := d.run(d.mapTask); err != nil {
		return nil, err
	}
	mapPhase := cluster.Phase{Name: "map", Workers: make([]cluster.WorkerLoad, W)}
	for m, t := range d.tasks {
		mapPhase.Workers[m] = cluster.WorkerLoad{
			BytesOut: t.prod.OutBytes,
			MsgsOut:  t.prod.Records,
			Flops:    t.prod.Records * 8, // feature copy / encode cost
			PeakMem:  1 << 20,            // mappers stream; negligible state
		}
	}

	numLayers := model.NumLayers()
	var embeddings *tensor.Matrix
	if opts.EmitEmbeddings {
		embDim := model.InDim()
		if numLayers > 1 {
			embDim = model.Layers[numLayers-2].OutDim()
		}
		embeddings = tensor.New(g.NumNodes, embDim)
	}
	rounds := make([][]mrTaskRound, numLayers)
	combined := make([]int64, numLayers)
	for round := 1; round <= numLayers; round++ {
		tr := make([]mrTaskRound, W)
		rounds[round-1] = tr
		err := d.run(func(t *mrTask) error {
			return d.reduce(t, round, embeddings, &tr[t.id])
		})
		if err != nil {
			return nil, err
		}
		combined[round-1] = d.combinedAway()
		d.begin(round)
		if err := d.run(func(t *mrTask) error {
			d.emit(t, round, &tr[t.id])
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// Assemble logits from the final round's state records (originals only:
	// a mirror carries the same logits as its original).
	res := &Result{Logits: tensor.New(g.NumNodes, model.NumClasses), Embeddings: embeddings}
	filled := make([]bool, g.NumNodes)
	for _, row := range d.exts {
		for _, e := range row {
			for i, key := range e.Keys {
				if e.Kinds[i] != mrSelf || int(key) >= sg.NumOriginal {
					continue
				}
				h := e.RowFloats(i)
				if len(h) != model.NumClasses {
					return nil, fmt.Errorf("inference: node %d finished with dim %d, want %d", key, len(h), model.NumClasses)
				}
				res.Logits.SetRow(int(key), h)
				filled[key] = true
			}
		}
	}
	for v, ok := range filled {
		if !ok {
			return nil, fmt.Errorf("inference: node %d missing from final round output", v)
		}
	}
	res.finalize(model)
	res.Stats, res.Phases = d.stats(mapPhase, rounds, combined)
	return res, nil
}

func newMRDriver(model *gas.Model, sg *ShadowGraph, opts Options, threshold int) *mrDriver {
	W, n := opts.NumWorkers, sg.G.NumNodes
	d := &mrDriver{
		model: model, sg: sg, opts: opts, threshold: threshold,
		part:  opts.partition(sg.G),
		owner: make([]int32, n),
		local: make([]int32, n),
		owned: make([][]int32, W),
		tasks: make([]*mrTask, W),
	}
	for v := int32(0); v < int32(n); v++ {
		d.owner[v] = int32(d.part.WorkerFor(v))
		d.local[v] = int32(d.part.LocalIndex(v))
	}
	d.exts = make([][]*mapreduce.Extent, W)
	for p := range d.exts {
		d.exts[p] = make([]*mapreduce.Extent, W)
		for r := range d.exts[p] {
			d.exts[p][r] = &mapreduce.Extent{}
		}
	}
	for i := range d.tasks {
		d.owned[i] = d.part.NodesFor(i, n)
		d.tasks[i] = &mrTask{
			id:   i,
			prod: mapreduce.NewProducer(d.exts[i], d.owner, mrRecordBytes),
			in:   make([]*mapreduce.Extent, W),
			pool: tensor.NewPool(),
			seen: make([]bool, W),
		}
	}
	return d
}

// mapTask is map task t: it maps nodes t, t+W, t+2W, ... in id order,
// emitting each node's state and out-edge records and scattering its
// features to the first layer.
func (d *mrDriver) mapTask(t *mrTask) error {
	g := d.sg.G
	for v := int32(t.id); v < int32(g.NumNodes); v += int32(d.opts.NumWorkers) {
		h := g.Features.Row(int(v))
		t.prod.Emit(v, mrSelf, v, 0, h, nil)
		dsts := g.OutNeighbors(v)
		if len(dsts) == 0 {
			continue
		}
		var feats []float32
		if g.EdgeFeatures != nil {
			t.flat = t.flat[:0]
			for _, e := range g.OutEdgeIDs(v) {
				t.flat = append(t.flat, g.EdgeFeatures.Row(int(e))...)
			}
			feats = t.flat
		}
		t.prod.Emit(v, mrOutEdges, v, d.sg.OrigOutDeg[v], feats, dsts)
		d.scatter(t, v, h, 0, dsts, feats, d.sg.OrigOutDeg[v])
	}
	return nil
}

// begin starts the emitting half of a phase: every task's extents are
// truncated for the records that feed Layers[layer], with partial-gather
// combining when the strategy is on and that layer's reduce is
// commutative. Every reducer must be done with its input by now.
func (d *mrDriver) begin(layer int) {
	var combine func(acc, pay []float32)
	if d.opts.PartialGather && layer < d.model.NumLayers() {
		combine = foldFunc(d.model.Layers[layer].Reduce())
	}
	for _, t := range d.tasks {
		t.prod.Combine = combine
		t.prod.Begin()
	}
}

// foldFunc returns the in-place partial-gather fold for a reduce kind, or
// nil when the kind does not obey the commutative/associative laws.
func foldFunc(kind gas.ReduceKind) func(acc, pay []float32) {
	switch kind {
	case gas.ReduceSum, gas.ReduceMean:
		return func(acc, pay []float32) {
			for j, x := range pay {
				acc[j] += x
			}
		}
	case gas.ReduceMax:
		return func(acc, pay []float32) {
			for j, x := range pay {
				acc[j] = max32(acc[j], x)
			}
		}
	case gas.ReduceMin:
		return func(acc, pay []float32) {
			for j, x := range pay {
				acc[j] = min32(acc[j], x)
			}
		}
	}
	return nil
}

// combinedAway totals the messages the last phase's combiners folded away.
func (d *mrDriver) combinedAway() int64 {
	var n int64
	for _, t := range d.tasks {
		n += t.prod.CombinedAway
	}
	return n
}

// run executes fn for every task — on goroutines under Options.Parallel —
// and returns the lowest-numbered task's error.
func (d *mrDriver) run(fn func(t *mrTask) error) error {
	errs := make([]error, len(d.tasks))
	if d.opts.Parallel {
		var wg sync.WaitGroup
		for i, t := range d.tasks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = fn(t)
			}()
		}
		wg.Wait()
	} else {
		for i, t := range d.tasks {
			errs[i] = fn(t)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reduce is the consuming half of round `round` on task t: shuffle its
// input column (through disk under SpillDir), group it, gather every key's
// messages with the segment-reduce kernels and apply the layer as one
// pooled MatMul over the task's state slab, leaving the new states in t.out
// and the keys' out-edge records in t's scratch.
func (d *mrDriver) reduce(t *mrTask, round int, embeddings *tensor.Matrix, tr *mrTaskRound) error {
	layer := d.model.Layers[round-1]
	last := round == d.model.NumLayers()
	for p := range t.in {
		t.in[p] = d.exts[p][t.id]
	}
	if d.opts.SpillDir != "" {
		size, err := mapreduce.Spill(d.opts.SpillDir, t.in)
		if err != nil {
			return err
		}
		tr.inBytes = size
	}
	grp := &t.grp
	keys := d.owned[t.id]
	if err := grp.Build(t.in, d.local, len(keys)); err != nil {
		return err
	}
	tr.inRecords = int64(grp.Records())

	// Broadcast payloads mailed to this reducer.
	t.bc.reset()
	var mailBytes int64
	for i := 0; i < grp.Mails(); i++ {
		row := grp.Mail(i)
		mailBytes += mrRecordBytes(row.Kind, len(row.Floats), len(row.Ints))
		if row.Kind == mrBCPayload {
			t.bc.put(d.sg.G.NumNodes, row.Src, row.Floats)
		}
	}

	// Sort each key's rows into its state, its out-edges and its messages;
	// messages keep the grouped (ascending-source) order.
	dim := layer.InDim()
	nk := len(keys)
	t.off = resizeInt32s(t.off, nk+1)
	t.self = resizeInt32s(t.self, nk)
	t.eOff = resizeInt32s(t.eOff, nk+1)
	t.fOff = resizeInt32s(t.fOff, nk+1)
	t.deg = resizeInt32s(t.deg, nk)
	t.pays, t.counts = t.pays[:0], t.counts[:0]
	t.dsts, t.feats = t.dsts[:0], t.feats[:0]
	inBytes := mailBytes
	for li := 0; li < nk; li++ {
		t.self[li] = -1
		var groupBytes int64
		for s := grp.Off[li]; s < grp.Off[li+1]; s++ {
			row := grp.Slot(int(s))
			groupBytes += mrRecordBytes(row.Kind, len(row.Floats), len(row.Ints))
			switch row.Kind {
			case mrSelf:
				t.self[li] = s
			case mrOutEdges:
				t.dsts = append(t.dsts, row.Ints...)
				t.feats = append(t.feats, row.Floats...)
				t.deg[li] = row.Count
			case mrMsg:
				if len(row.Floats) != dim {
					return fmt.Errorf("inference: message for node %d has dim %d, layer expects %d", keys[li], len(row.Floats), dim)
				}
				t.pays = append(t.pays, row.Floats)
				t.counts = append(t.counts, row.Count)
			case mrBCRef:
				p, ok := t.bc.get(row.Src)
				if !ok {
					return fmt.Errorf("inference: broadcast payload for node %d missing on reducer %d", row.Src, t.id)
				}
				t.pays = append(t.pays, p)
				t.counts = append(t.counts, 1)
			default:
				return fmt.Errorf("inference: unexpected record kind %d for node %d", row.Kind, keys[li])
			}
		}
		t.off[li+1] = int32(len(t.pays))
		t.eOff[li+1], t.fOff[li+1] = int32(len(t.dsts)), int32(len(t.feats))
		inBytes += groupBytes
		tr.peak = max(tr.peak, groupBytes)
		if t.self[li] < 0 {
			return fmt.Errorf("inference: node %d lost its state in round %d", keys[li], round)
		}
	}
	if d.opts.SpillDir == "" {
		tr.inBytes = inBytes
	}

	// The state slab: row li is key li's incoming state.
	st := t.pool.GetNoZero(nk, dim)
	for li, key := range keys {
		h := grp.Slot(int(t.self[li])).Floats
		if len(h) != dim {
			t.pool.Put(st)
			return fmt.Errorf("inference: node %d has state dim %d, layer expects %d", key, len(h), dim)
		}
		copy(st.Row(li), h)
		if last && embeddings != nil && int(key) < d.sg.NumOriginal {
			// The final round's input state is the penultimate layer's
			// output. Rows are disjoint per key, so the parallel write is
			// safe.
			embeddings.SetRow(int(key), h)
		}
	}
	aggr := aggregateCSR(&t.aggr, layer.Reduce(), dim, t.off, t.pays, t.counts, t.pool)
	t.out = gas.ApplyNodePooled(layer, st, aggr, t.pool)
	releaseAggregated(t.pool, aggr)
	t.pool.Put(st)
	tr.flops = int64(nk)*layerNodeFlops(layer) + int64(len(t.pays))*layerMsgFlops(layer)
	return nil
}

// emit is the producing half of round `round` on task t: each key's new
// state, then — before the last round — its out-edge record and its
// scatter to Layers[round], in ascending key order.
func (d *mrDriver) emit(t *mrTask, round int, tr *mrTaskRound) {
	last := round == d.model.NumLayers()
	for li, key := range d.owned[t.id] {
		h := t.out.Row(li)
		t.prod.Emit(key, mrSelf, key, 0, h, nil)
		lo, hi := t.eOff[li], t.eOff[li+1]
		if last || lo == hi {
			continue
		}
		dsts, feats := t.dsts[lo:hi], t.feats[t.fOff[li]:t.fOff[li+1]]
		t.prod.Emit(key, mrOutEdges, key, t.deg[li], feats, dsts)
		d.scatter(t, key, h, round, dsts, feats, t.deg[li])
	}
	t.pool.Put(t.out)
	t.out = nil
	tr.outRecords, tr.outBytes = t.prod.Records, t.prod.OutBytes
}

// scatter is apply_edge + scatter for the messages Layers[k] consumes next
// round, from node v's state h and the out-edge record that traveled with
// it: dsts, the flattened edge features aligned with them, and the
// original out-degree degree-scaled layers divide by (mirrors scale by
// their origin's). Hubs under the broadcast strategy mail one payload per
// destination reducer and a payload-free reference along every edge;
// broadcast-safe layers fan one payload out; edge-dependent layers run
// apply_edge per edge.
func (d *mrDriver) scatter(t *mrTask, v int32, h []float32, k int, dsts []int32, feats []float32, origDeg int32) {
	sendLayer := d.model.Layers[k]
	if ms, ok := sendLayer.(gas.MessageScalerInto); ok {
		if cap(t.scaled) < len(h) {
			t.scaled = make([]float32, len(h))
		}
		t.scaled = t.scaled[:len(h)]
		ms.ScaleMessageInto(t.scaled, h, int(origDeg))
		h = t.scaled
	} else if ms, ok := sendLayer.(gas.MessageScaler); ok {
		h = ms.ScaleMessage(h, int(origDeg))
	}

	if d.opts.Broadcast && sendLayer.BroadcastSafe() && len(dsts) > d.threshold {
		t.bcHubs++
		clear(t.seen)
		for _, dst := range dsts {
			t.seen[d.owner[dst]] = true
		}
		for r, ok := range t.seen {
			if ok {
				t.prod.EmitMail(r, mrBCPayload, v, h)
			}
		}
		for _, dst := range dsts {
			t.prod.Emit(dst, mrBCRef, v, 0, nil, nil)
		}
		return
	}
	if sendLayer.BroadcastSafe() {
		t.prod.SendFan(dsts, mrMsg, v, 1, h)
		return
	}
	t.state.Rows, t.state.Cols, t.state.Data = 1, len(h), h
	edgeDim := 0
	if len(dsts) > 0 {
		edgeDim = len(feats) / len(dsts)
	}
	for i, dst := range dsts {
		var ef *tensor.Matrix
		if edgeDim > 0 {
			t.edge.Rows, t.edge.Cols, t.edge.Data = 1, edgeDim, feats[i*edgeDim:(i+1)*edgeDim]
			ef = &t.edge
		}
		payload := gas.ApplyEdgePooled(sendLayer, &t.state, ef, t.pool)
		t.prod.Send(dst, mrMsg, v, 1, payload.Row(0))
		if payload != &t.state {
			t.pool.Put(payload)
		}
	}
}

// stats converts per-round task records into run stats and cluster phases.
// combined[r] is what the combiners folded away from round r's input.
func (d *mrDriver) stats(mapPhase cluster.Phase, rounds [][]mrTaskRound, combined []int64) (Stats, []cluster.Phase) {
	W := d.opts.NumWorkers
	st := Stats{
		ShadowMirrors:   int64(d.sg.Mirrors),
		WorkerBytesIn:   make([]int64, W),
		WorkerBytesOut:  make([]int64, W),
		WorkerFlops:     make([]int64, W),
		WorkerInRecords: make([]int64, W),
	}
	for _, t := range d.tasks {
		st.BroadcastHubs += t.bcHubs
	}
	phases := []cluster.Phase{mapPhase}
	for r, tasks := range rounds {
		st.Supersteps++
		st.CombinedAway += combined[r]
		ph := cluster.Phase{Name: fmt.Sprintf("layer-%d", r+1), Workers: make([]cluster.WorkerLoad, W)}
		for w, tr := range tasks {
			// Combiner flops run on the producers; attribute them evenly.
			flops := tr.flops + combined[r]*layerMsgFlops(d.model.Layers[r])/int64(W)
			ph.Workers[w] = cluster.WorkerLoad{
				Flops:    flops,
				BytesIn:  tr.inBytes,
				BytesOut: tr.outBytes,
				MsgsIn:   tr.inRecords,
				MsgsOut:  tr.outRecords,
				PeakMem:  tr.peak + (1 << 20),
			}
			st.MessagesSent += tr.outRecords
			st.BytesSent += tr.outBytes
			st.BytesReceived += tr.inBytes
			st.WorkerBytesIn[w] += tr.inBytes
			st.WorkerBytesOut[w] += tr.outBytes
			st.WorkerFlops[w] += flops
			st.WorkerInRecords[w] += tr.inRecords
		}
		phases = append(phases, ph)
	}
	return st, phases
}

func resizeInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
