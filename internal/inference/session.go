package inference

import (
	"fmt"

	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/pregel"
	"inferturbo/internal/tensor"
)

// RefreshKind reports which execution path a Session.Refresh took.
type RefreshKind string

const (
	// RefreshFull recomputed every vertex from scratch (first refresh, or a
	// flood estimate past the cutover fraction).
	RefreshFull RefreshKind = "full"
	// RefreshDelta recomputed only the L-hop flood of the pending change set
	// against the resident state.
	RefreshDelta RefreshKind = "delta"
)

// Session is the incremental execution mode: a resident, restartable
// inference state machine over a mutable graph. A full pass populates
// per-layer state slabs; Mutate applies graph deltas and accumulates their
// seed sets; Refresh recomputes logits — through a frontier-driven delta
// pass proportional to the change set's L-hop flood when the flood is small,
// or a full pass (which re-populates the resident state as a side effect)
// when it is not. Every path returns logits bit-identical to RunPregel from
// scratch on the current graph.
//
// Resident-state ownership: the session owns one global slab per layer
// (layers[k], NumNodes × dim_k) plus one wire-message slab per degree-scaled
// layer; layers[0] always aliases the current graph's feature matrix. During
// a pass, slab rows are written only by the owning vertex's worker at that
// vertex's superstep — layer separation (writes hit slab k while gathers
// read slab k-1) keeps parallel workers race-free without merging. Results
// hand out clones, never slab aliases, so a previous Refresh's logits stay
// immutable while the next pass runs (the serving layer's RCU snapshots
// depend on this).
//
// A Session is not safe for concurrent use; callers serialize Mutate and
// Refresh (the serving layer does this under its refresh lock).
type Session struct {
	model *gas.Model
	opts  Options

	g  *graph.Graph
	gi *graph.GatherIndex // delivery-order pull index; nil when stale

	primed    bool // a full pass has populated the resident slabs
	layers    []*tensor.Matrix
	msgs      []*tensor.Matrix
	scaled    []bool
	anyScaled bool
	dirtyStep []int32

	pendState  []bool
	pendInbox  []bool
	pendPinned []bool
	pending    bool

	// Durable-session state (nil unless Options.SessionDir is set).
	dur        *sessionDurable
	replayMark uint64 // highest mutation seq the resident state accounts for
}

// NewSession validates the model/graph pair and the options. The strategy
// and durability knobs that assume a one-shot run are rejected: skew
// strategies rewrite the executed graph or change the message mix
// (ShadowNodes, Broadcast, PartialGather), OutDegrees/EmitEmbeddings target
// the subgraph path, and durable cross-process resume (CheckpointDir/Resume)
// cannot replay the capture of supersteps that never re-execute. In-process fault
// tolerance (CheckpointEvery, Faults) is fully supported on both planes.
func NewSession(model *gas.Model, g *graph.Graph, opts Options) (*Session, error) {
	opts = opts.withDefaults()
	if err := validateModelGraph(model, g); err != nil {
		return nil, err
	}
	for name, set := range map[string]bool{
		"PartialGather":  opts.PartialGather,
		"Broadcast":      opts.Broadcast,
		"ShadowNodes":    opts.ShadowNodes,
		"OutDegrees":     opts.OutDegrees != nil,
		"EmitEmbeddings": opts.EmitEmbeddings,
		"CheckpointDir":  opts.CheckpointDir != "",
		"Resume":         opts.Resume,
	} {
		if set {
			return nil, fmt.Errorf("inference: incremental Session does not support %s", name)
		}
	}
	s := &Session{model: model, opts: opts, g: g}
	s.scaled = make([]bool, model.NumLayers())
	for k, l := range model.Layers {
		s.scaled[k] = layerScales(l)
		s.anyScaled = s.anyScaled || s.scaled[k]
	}
	if err := s.initDurable(); err != nil {
		return nil, err
	}
	return s, nil
}

// Graph returns the session's current (immutable) graph snapshot.
func (s *Session) Graph() *graph.Graph { return s.g }

// SetFaults rearms the in-process fault-injection plan for subsequent
// passes — the serving layer's chaos harness injects crashes between
// refreshes. Call only between Refreshes, never during one.
func (s *Session) SetFaults(f *pregel.FaultPlan) { s.opts.Faults = f }

// Primed reports whether resident state exists (a full pass has run).
func (s *Session) Primed() bool { return s.primed }

// Pending reports whether mutations await a Refresh.
func (s *Session) Pending() bool { return s.pending }

// cutoverFrac resolves the delta→full fallback fraction.
func (s *Session) cutoverFrac() float64 {
	if s.opts.DeltaCutover > 0 {
		return s.opts.DeltaCutover
	}
	return 0.25
}

// Mutate applies one delta batch: the graph advances immediately (Graph()
// reflects it), resident slabs grow to the new node count, and stale
// resident message rows — the state-dirty vertices' layer-0 rows and every
// scaled row of degree-changed vertices — are rewritten in place from
// resident state. Seed sets accumulate until the next Refresh. An invalid
// delta changes nothing.
func (s *Session) Mutate(d graph.Delta) (*graph.DeltaEffect, error) {
	if d.Empty() {
		return &graph.DeltaEffect{NumNodes: s.g.NumNodes}, nil
	}
	ng, eff, err := graph.ApplyDelta(s.g, d)
	if err != nil {
		return nil, err
	}
	s.g = ng
	s.gi = nil // structure or node count may have changed; rebuilt lazily
	s.pending = true
	if !s.primed {
		// No resident state to maintain: the first Refresh runs a full pass
		// over whatever graph is current by then.
		return eff, nil
	}

	s.growSlabs(eff.NumNodes)
	s.pendState = growBools(s.pendState, eff.NumNodes)
	s.pendInbox = growBools(s.pendInbox, eff.NumNodes)
	s.pendPinned = growBools(s.pendPinned, eff.NumNodes)

	// Repair resident wire messages whose inputs changed outside a pass:
	// h^0 rewrites (scaled layer 0 reads the new feature row) and degree
	// changes (every scaled layer's row of that vertex scales by the new
	// out-degree). Unscaled slabs alias the state slabs and need nothing.
	for _, v := range eff.StateDirty {
		s.pendState[v] = true
		if s.scaled[0] {
			scaleMsgRowInto(s.model.Layers[0], s.msgs[0].Row(int(v)), s.layers[0].Row(int(v)), s.g.OutDegree(v))
		}
	}
	for _, v := range eff.InboxDirty {
		s.pendInbox[v] = true
	}
	if s.anyScaled {
		for _, v := range eff.DegreeChanged {
			s.pendPinned[v] = true
			for k := 0; k < s.model.NumLayers(); k++ {
				if s.scaled[k] {
					scaleMsgRowInto(s.model.Layers[k], s.msgs[k].Row(int(v)), s.layers[k].Row(int(v)), s.g.OutDegree(v))
				}
			}
		}
	}
	return eff, nil
}

// Refresh recomputes logits for the current graph and reports which path
// ran. With no pending mutations it returns the resident result without
// running anything (Stats zero, kind delta).
func (s *Session) Refresh() (*Result, RefreshKind, error) {
	if !s.primed {
		res, err := s.fullPass()
		return res, RefreshFull, err
	}
	if !s.pending {
		return s.residentResult(), RefreshDelta, nil
	}
	frontier := s.frontier()
	if float64(s.floodEstimate(frontier)) > s.cutoverFrac()*float64(s.g.NumNodes) {
		res, err := s.fullPass()
		return res, RefreshFull, err
	}
	res, err := s.deltaPass(frontier)
	return res, RefreshDelta, err
}

// fullPass runs the one-shot driver with layer capture enabled, so the run
// doubles as resident-state (re)population, then derives the scaled message
// slabs — a scaling pass, no matmuls — and clears all pending bookkeeping.
func (s *Session) fullPass() (*Result, error) {
	s.ensureSlabs()
	o := s.opts
	o.captureLayers = s.layers
	res, err := RunPregel(s.model, s.g, o)
	if err != nil {
		return nil, err
	}
	for k := 0; k < s.model.NumLayers(); k++ {
		if !s.scaled[k] {
			continue
		}
		layer := s.model.Layers[k]
		src, dst := s.layers[k], s.msgs[k]
		for v := 0; v < s.g.NumNodes; v++ {
			scaleMsgRowInto(layer, dst.Row(v), src.Row(v), s.g.OutDegree(int32(v)))
		}
	}
	s.primed = true
	s.clearPending()
	s.persistResident()
	return res, nil
}

// deltaPass floods the pending seed set through a frontier-driven engine run
// over the resident slabs and returns the refreshed logits.
func (s *Session) deltaPass(frontier []int32) (*Result, error) {
	if s.gi == nil {
		s.gi = graph.BuildGatherIndex(s.g)
	}
	for i := range s.dirtyStep {
		s.dirtyStep[i] = -1
	}
	for v, dirty := range s.pendState {
		if dirty {
			s.dirtyStep[v] = 0 // h^0 changed at mutation time
		}
	}

	o := s.opts
	defer applyTuning(o)()
	part := o.partition(s.g)
	driver := newDeltaDriver(s.model, s.g, s.gi, s.layers, s.msgs, s.scaled,
		s.pendState, s.pendInbox, s.pendPinned, s.dirtyStep, o.NumWorkers)
	cfg := pregel.Config{
		NumWorkers:       o.NumWorkers,
		Partitioner:      part,
		MaxSupersteps:    s.model.NumLayers() + 1,
		Parallel:         o.Parallel,
		Batched:          !o.PerVertexCompute,
		Pipelined:        o.Pipelined,
		ChunkSize:        o.PipelineChunk,
		PipelineDepth:    o.PipelineDepth,
		CheckpointEvery:  o.CheckpointEvery,
		Faults:           o.Faults,
		PipelineWatchdog: o.PipelineWatchdog,
		SuperstepHook:    o.SuperstepHook,
		Cancel:           o.Cancel,
		Frontier:         frontier,
		// Pings are headers-only; reserves stay minimal.
		Columnar: &pregel.ColumnarOps{Bytes: columnarBytes, ReserveMsgs: len(frontier)/o.NumWorkers + 1},
	}
	eng := pregel.NewEngine[deltaVtx](pregel.GraphTopology{G: s.g}, driver, cfg)
	if err := eng.Run(); err != nil {
		return nil, err
	}

	res := s.residentResult()
	res.Stats, res.Phases = statsFromMetrics(eng.Metrics(), eng.Supersteps(), s.model,
		residentBytes(s.g, part, s.model, o.NumWorkers), o.NumWorkers)
	res.Stats.Recoveries = eng.Recoveries()
	cs := eng.CheckpointStats()
	res.Stats.Checkpoints = cs.Checkpoints
	res.Stats.CheckpointBytes = cs.Bytes
	res.Stats.CheckpointWallNs = cs.SnapshotNs
	res.Stats.PersistWallNs = cs.PersistNs
	res.Stats.WatchdogTrips = eng.WatchdogTrips()
	s.clearPending()
	s.persistResident()
	return res, nil
}

// residentResult packages the resident logits slab as a fresh Result.
func (s *Session) residentResult() *Result {
	res := &Result{Logits: s.layers[s.model.NumLayers()].Clone()}
	res.finalize(s.model)
	return res
}

// frontier lists the pending seed vertices (pinned seeds only matter to
// degree-scaled models).
func (s *Session) frontier() []int32 {
	var f []int32
	for v := range s.pendState {
		if s.pendState[v] || s.pendInbox[v] || (s.anyScaled && s.pendPinned[v]) {
			f = append(f, int32(v))
		}
	}
	return f
}

// floodEstimate upper-bounds how many vertices the delta pass could touch:
// an L-expansion out-edge BFS from the seeds, capped implicitly by the
// visited set. The real wave is usually smaller (bitwise-unchanged rows stop
// it), so this errs toward full passes — the safe side of the cutover.
func (s *Session) floodEstimate(frontier []int32) int {
	visited := make([]bool, s.g.NumNodes)
	cur := append([]int32(nil), frontier...)
	for _, v := range cur {
		visited[v] = true
	}
	count := len(cur)
	for hop := 0; hop < s.model.NumLayers() && len(cur) > 0; hop++ {
		var next []int32
		for _, v := range cur {
			for _, u := range s.g.OutNeighbors(v) {
				if !visited[u] {
					visited[u] = true
					count++
					next = append(next, u)
				}
			}
		}
		cur = next
	}
	return count
}

// ensureSlabs (re)builds the resident slab set for the current graph:
// layers[0] aliases the feature matrix, layers[k] is NumNodes × OutDim(k-1),
// and each scaled layer owns a message slab (unscaled ones alias the state
// slab — the wire message IS the state).
func (s *Session) ensureSlabs() {
	n := s.g.NumNodes
	L := s.model.NumLayers()
	if s.layers == nil {
		s.layers = make([]*tensor.Matrix, L+1)
		s.msgs = make([]*tensor.Matrix, L)
	}
	s.layers[0] = s.g.Features
	for k := 1; k <= L; k++ {
		dim := s.model.Layers[k-1].OutDim()
		if s.layers[k] == nil || s.layers[k].Rows != n {
			s.layers[k] = tensor.New(n, dim)
		}
	}
	for k := 0; k < L; k++ {
		if !s.scaled[k] {
			s.msgs[k] = s.layers[k]
			continue
		}
		dim := s.model.Layers[k].InDim()
		if s.msgs[k] == nil || s.msgs[k].Rows != n || s.msgs[k] == s.layers[k] {
			s.msgs[k] = tensor.New(n, dim)
		}
	}
	s.dirtyStep = growInt32(s.dirtyStep, n)
	s.pendState = growBools(s.pendState, n)
	s.pendInbox = growBools(s.pendInbox, n)
	s.pendPinned = growBools(s.pendPinned, n)
}

// growSlabs extends resident state to a larger node count after a mutation:
// old rows are preserved, new rows are zero (the correct resident value for
// a vertex that has never computed — its receivers are inbox-dirty and will
// re-gather regardless).
func (s *Session) growSlabs(n int) {
	s.layers[0] = s.g.Features
	L := s.model.NumLayers()
	for k := 1; k <= L; k++ {
		if s.layers[k].Rows < n {
			s.layers[k] = growMatrix(s.layers[k], n)
		}
	}
	for k := 0; k < L; k++ {
		if !s.scaled[k] {
			s.msgs[k] = s.layers[k] // re-alias: the state slab may have moved
		} else if s.msgs[k].Rows < n {
			s.msgs[k] = growMatrix(s.msgs[k], n)
		}
	}
	s.dirtyStep = growInt32(s.dirtyStep, n)
}

func (s *Session) clearPending() {
	for i := range s.pendState {
		s.pendState[i] = false
		s.pendInbox[i] = false
		s.pendPinned[i] = false
	}
	s.pending = false
}

func growMatrix(m *tensor.Matrix, rows int) *tensor.Matrix {
	nm := tensor.New(rows, m.Cols)
	copy(nm.Data, m.Data)
	return nm
}

func growBools(b []bool, n int) []bool {
	if len(b) >= n {
		return b
	}
	nb := make([]bool, n)
	copy(nb, b)
	return nb
}

func growInt32(b []int32, n int) []int32 {
	if len(b) >= n {
		return b
	}
	nb := make([]int32, n)
	copy(nb, b)
	return nb
}
