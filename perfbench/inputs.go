package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/serve"
	"inferturbo/internal/tensor"
)

// profile is one workload: the graph shape and model the program receives,
// how one round of the run divides its time, and the serving figures
// measured on it, from which the open-loop rates derive. Every workload runs
// the same phases (set-up, full-graph passes on both backends, mixed
// serving, closed-loop writes, warm restarts, capacity rungs) so that every
// end-to-end metric is measured on every workload; the sizes decide which
// layers carry the run.
type profile struct {
	name  string
	graph datagen.Config
	// serveNodes and serveDegree size the serving graph, generated with the
	// batch graph's skew and features; serveDegree 0 keeps its average
	// degree.
	serveNodes, serveDegree int
	hidden, layers          int // of the SAGE model
	// mixedShare is the share of a round spent in the open-loop mixed
	// phase; the round's full-graph passes take what the other phases
	// leave.
	mixedShare float64
	// writeGroups and restarts are the closed-loop write groups (four
	// mutates, then a fifth that triggers a refresh) and the warm restarts
	// of one round. Counts, not time budgets, so every run of a seed
	// applies the same batches.
	writeGroups, restarts int
	// Serving figures measured on this workload on the two-vCPU machine the
	// benchmark was built on (METRICS.md gives the runs): the capacity
	// staircase estimate, and the refresh and session persist that follow
	// each refresh trigger.
	capacityRPS, refreshMs, persistMs float64
}

// The rates of the mixed phase derive from the measured figures.
const (
	// queryLoad is the share of the measured capacity offered as queries,
	// so the mixed phase times queries well below saturation.
	queryLoad = 0.1
	// lookupRate gives a run's mixed phases about 5,600 lookups, so a p99
	// has 56 samples beyond it.
	lookupRate = 300.0
	// maxMutateRate gives hub-fanin's mixed phases (19 s over the rounds at
	// --seconds 54) 240 mutates, so their p90 has 24 samples beyond it.
	maxMutateRate = 12.0
	// refreshClearance is how many times a refresh plus its persist one
	// mutate period lasts at least, so a host slowed by a third still
	// finishes both before the second mutate after a trigger.
	refreshClearance = 1.5
	// stairStep is the capacity staircase's geometric step.
	stairStep = 1.12
)

func (p profile) queryRate() float64 { return queryLoad * p.capacityRPS }

// mutateRate is the mixed phase's mutate rate: maxMutateRate, or less where
// a refresh and its persist need it. Then only the mutate right after each
// trigger (one in refreshEveryN) meets the refresh's CPU use, and the
// lookups and queries beside them meet one refresh at a time.
func (p profile) mutateRate() float64 {
	return min(maxMutateRate, 1000/(refreshClearance*(p.refreshMs+p.persistMs)))
}

// stairStart is two staircase steps below the measured capacity, so a run's
// first rungs climb to it and the rest oscillate around it.
func (p profile) stairStart() float64 { return p.capacityRPS / (stairStep * stairStep) }

// The two workloads. hub-fanin is the paper's target: extreme in-degree
// hubs and narrow features, so messaging, combiners, shadow build and the
// MapReduce shuffle carry the passes. wide-uniform has almost no hubs and
// wide features, so the dense kernels carry them. Both serve a second graph
// of their own shape and width, with durable writes beside fresh reads.
// The batch graphs are sized so that a MapReduce pass takes about half a
// second on a two-vCPU machine, and every run times a dozen or more: at
// 16,000 nodes hub-fanin's took a second, and five passes in one stretch of
// the run spread its median by a quarter from run to run.
//
// hub-fanin's skew-in serving graph is shaped so that a refresh's flood
// estimate (out-edge BFS from the five drained batches) stays clear of the
// session's full-pass cutover at a quarter of the nodes, on every seed:
// otherwise the seed decides whether refreshes run as delta or full passes,
// and every serving figure follows that choice. Over seeds 41-52 the
// estimate is 0.13-0.16 of the nodes (degree 2, three hops).
// wide-uniform's degree-6 uniform graph floods past the cutover on every
// seed, so its refreshes are all full passes.
var profiles = map[string]profile{
	"hub-fanin": {
		name: "hub-fanin",
		graph: datagen.Config{
			Name: "hub-fanin", Nodes: 8000, AvgDegree: 24, Skew: datagen.SkewIn, Exponent: 1.8,
			FeatureDim: 16, NumClasses: 8,
		},
		// Served at degree 2: at degree 24 a 3-hop query covers most of
		// the graph and every refresh is a full pass. At 4,000 nodes a warm
		// restart took 11 ms, mostly goroutine and fsync wake-ups, and
		// moved by half with 4% host steal.
		serveNodes: 16000, serveDegree: 2, hidden: 16, layers: 3,
		mixedShare: 0.35, writeGroups: 6, restarts: 4,
		capacityRPS: 660, refreshMs: 30, persistMs: 24,
	},
	"wide-uniform": {
		name: "wide-uniform",
		graph: datagen.Config{
			Name: "wide-uniform", Nodes: 10000, AvgDegree: 6, Skew: datagen.SkewNone,
			FeatureDim: 128, NumClasses: 16,
		},
		serveNodes: 4000, hidden: 128, layers: 2,
		mixedShare: 0.35, writeGroups: 3, restarts: 3,
		capacityRPS: 420, refreshMs: 110, persistMs: 30,
	},
}

// Serving-phase constants shared by every workload.
const (
	// A run is rounds rounds of every phase, so each metric's samples
	// spread over the whole run and a slow stretch of the host reaches a
	// few of them, not all.
	rounds          = 8
	setupsPerRound  = 2    // cold set-ups per round; setup_s is their median
	tailBatches     = 3    // acknowledged, unrefreshed batches before each restart
	refreshEveryN   = 5    // every fifth mutate asks for a refresh
	structuralEvery = 5    // every fifth batch is an edge add/remove toggle
	mutateShare     = .005 // share of nodes a feature batch rewrites
	verifyRoots     = 8    // fresh single-root queries checked against /v1/logits
	// queryDeadlineMs is the deadline mixed-phase queries carry: long enough
	// that a stall of the host, not of the server, does not degrade an
	// answer; capacity rungs keep the server's default, so overload
	// degrades.
	queryDeadlineMs = 1000
	latencyLimitMs  = 50.0 // a capacity rung's p95 latency limit
)

// inputs is everything the program receives, generated from the seed: the
// encoded graphs, the model signature and the request stream.
type inputs struct {
	batchGraph []byte
	serveGraph []byte
	model      []byte
	// batches are the mutation batches in acknowledgement order: each
	// round's mixed-phase batches, then its write groups', then its tail
	// batches.
	batches []graph.Delta
	bodies  [][]byte // JSON bodies of batches, refresh flag included
	rounds  []roundPlan
	roots   []int32 // roots checked against /v1/logits after refreshes
}

// roundPlan is one round's share of the inputs: the mixed phase's schedule,
// ordered by due time, and the first batch of its write groups and of its
// tail batches.
type roundPlan struct {
	mixed             []event
	writeFrom, tailAt int
}

type eventKind int

const (
	evLookup eventKind = iota
	evQuery
	evMutate
	evStats // control read before a refresh trigger; untimed
)

// event is one scheduled request of the open-loop generator.
type event struct {
	at    time.Duration // due time from the phase start
	kind  eventKind
	path  string
	body  []byte
	batch int // mutation batch index, evMutate only
	// trigger marks a mutate that asks for a refresh.
	trigger bool
}

func buildModel(p profile, inDim, classes int, seed int64) *gas.Model {
	rng := tensor.NewRNG(seed*7919 + 17)
	return gas.NewSAGEModel(p.name, gas.TaskSingleLabel, inDim, p.hidden, classes, p.layers, 0, rng)
}

func encodeGraph(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		return nil, fmt.Errorf("encode graph: %w", err)
	}
	return buf.Bytes(), nil
}

// makeInputs generates the workload's inputs from seed; the same seed gives
// the same bytes.
func makeInputs(p profile, seed int64, mixedDur time.Duration) (*inputs, error) {
	cfg := p.graph
	cfg.Seed = seed
	bg := datagen.Generate(cfg).Graph
	in := &inputs{}
	var err error
	if in.batchGraph, err = encodeGraph(bg); err != nil {
		return nil, err
	}
	scfg := cfg
	scfg.Nodes = p.serveNodes
	if p.serveDegree > 0 {
		scfg.AvgDegree = p.serveDegree
	}
	scfg.Seed = seed + 1
	sg := datagen.Generate(scfg).Graph
	if in.serveGraph, err = encodeGraph(sg); err != nil {
		return nil, err
	}
	var mbuf bytes.Buffer
	if err := gas.Save(buildModel(p, cfg.FeatureDim, cfg.NumClasses, seed), &mbuf); err != nil {
		return nil, fmt.Errorf("encode model: %w", err)
	}
	in.model = mbuf.Bytes()

	rng := tensor.NewRNG(seed*104729 + 3)
	nMixed := mixedMutates(p, mixedDur)
	nWrite := refreshEveryN * p.writeGroups
	perRound := nMixed + nWrite + tailBatches*p.restarts
	in.batches = mutationBatches(rng, sg, rounds*perRound)
	for i, d := range in.batches {
		// Within a round the mixed and write batches trigger a refresh
		// every refreshEveryN-th; the tail batches never do.
		k := i % perRound
		refresh := k < nMixed+nWrite && k%refreshEveryN == refreshEveryN-1
		body, err := json.Marshal(mutateRequest(d, refresh))
		if err != nil {
			return nil, fmt.Errorf("encode mutate body: %w", err)
		}
		in.bodies = append(in.bodies, body)
	}
	for k := 0; k < rounds; k++ {
		first := k * perRound
		in.rounds = append(in.rounds, roundPlan{
			mixed:     mixedSchedule(rng, p, sg, in, first, nMixed, mixedDur),
			writeFrom: first + nMixed,
			tailAt:    first + nMixed + nWrite,
		})
	}
	in.roots = checkRoots(rng, sg)
	return in, nil
}

// mixedMutates is the number of mutates in one round's mixed phase: the
// workload's mutate rate over the phase, rounded to whole refresh groups
// so the phase's last mutate triggers a refresh and nothing stays staged.
func mixedMutates(p profile, dur time.Duration) int {
	groups := int(math.Round(dur.Seconds() * p.mutateRate() / refreshEveryN))
	return refreshEveryN * max(groups, 1)
}

// mutationBatches generates n batches over g: feature rewrites of
// mutateShare of the nodes, with every structuralEvery-th batch instead
// toggling one fixed edge set (added, then removed, then added again), so
// removals always name edges that exist.
func mutationBatches(rng *tensor.RNG, g *graph.Graph, n int) []graph.Delta {
	rows := int(float64(g.NumNodes) * mutateShare)
	if rows < 1 {
		rows = 1
	}
	nEdges := rows/4 + 1
	toggle := make([]graph.EdgeKey, nEdges)
	for i := range toggle {
		toggle[i] = graph.EdgeKey{Src: int32(rng.Intn(g.NumNodes)), Dst: int32(rng.Intn(g.NumNodes))}
	}
	added := false
	dim := g.FeatureDim()
	out := make([]graph.Delta, n)
	for i := range out {
		if i%structuralEvery == structuralEvery-3 {
			var d graph.Delta
			if added {
				d.RemoveEdges = toggle
			} else {
				for _, e := range toggle {
					d.AddEdges = append(d.AddEdges, graph.EdgeAdd{Src: e.Src, Dst: e.Dst})
				}
			}
			added = !added
			out[i] = d
			continue
		}
		nodes := rng.SampleWithoutReplacement(g.NumNodes, rows)
		sort.Ints(nodes)
		var d graph.Delta
		for _, v := range nodes {
			d.Features = append(d.Features, graph.FeatureUpdate{Node: int32(v), Features: randRow(rng, dim)})
		}
		out[i] = d
	}
	return out
}

// expGap is a unit-rate exponential inter-arrival gap.
func expGap(rng *tensor.RNG) float64 { return -math.Log(1 - rng.Float64()) }

func randRow(rng *tensor.RNG, dim int) []float32 {
	f := make([]float32, dim)
	for j := range f {
		f[j] = rng.Float32()*2 - 1
	}
	return f
}

func mutateRequest(d graph.Delta, refresh bool) serve.MutateRequest {
	req := serve.MutateRequest{Refresh: refresh}
	for _, f := range d.Features {
		req.Features = append(req.Features, serve.NodeFeatureUpdate{Node: f.Node, Features: f.Features})
	}
	for _, e := range d.AddEdges {
		req.AddEdges = append(req.AddEdges, serve.NewEdge{Src: e.Src, Dst: e.Dst})
	}
	for _, e := range d.RemoveEdges {
		req.RemoveEdges = append(req.RemoveEdges, serve.EdgeRef{Src: e.Src, Dst: e.Dst})
	}
	return req
}

// mixedSchedule lays out one round's mixed phase: Poisson lookups and
// queries at their fixed rates, mutates of batches first to first+nMixed-1
// at a fixed period (so refresh triggers land the same batches on every
// run), and a control stats read shortly before every refresh trigger after
// the first.
func mixedSchedule(rng *tensor.RNG, p profile, g *graph.Graph, in *inputs, first, nMixed int, dur time.Duration) []event {
	var evs []event
	poisson := func(rate float64, mk func() event) {
		if rate <= 0 {
			return
		}
		t := 0.0
		for {
			t += expGap(rng) / rate
			at := time.Duration(t * float64(time.Second))
			if at >= dur {
				return
			}
			e := mk()
			e.at = at
			evs = append(evs, e)
		}
	}
	poisson(lookupRate, func() event {
		return event{kind: evLookup, path: fmt.Sprintf("/v1/nodes/%d", rng.Intn(g.NumNodes))}
	})
	poisson(p.queryRate(), func() event {
		return event{kind: evQuery, path: "/v1/query", body: queryBody(rng, g)}
	})
	period := dur / time.Duration(nMixed+1)
	triggers := 0
	for i := 0; i < nMixed; i++ {
		at := period * time.Duration(i+1)
		trigger := i%refreshEveryN == refreshEveryN-1
		if trigger {
			if triggers > 0 {
				evs = append(evs, event{kind: evStats, at: at - period/2, path: "/v1/stats"})
			}
			triggers++
		}
		evs = append(evs, event{kind: evMutate, at: at, path: "/v1/mutate", body: in.bodies[first+i], batch: first + i, trigger: trigger})
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
	return evs
}

// queryBody is one /v1/query body: a fresh single-root query, or (one in
// twenty each) a what-if override of the root's features or a cold-start
// node with three in-neighbors.
func queryBody(rng *tensor.RNG, g *graph.Graph) []byte {
	root := int32(rng.Intn(g.NumNodes))
	req := serve.QueryRequest{Roots: []int32{root}, DeadlineMs: queryDeadlineMs}
	switch k := rng.Intn(20); {
	case k == 0:
		req.Overrides = map[string][]float32{fmt.Sprint(root): randRow(rng, g.FeatureDim())}
	case k == 1:
		req.Roots = nil
		req.ColdStart = &serve.ColdStartRequest{Features: randRow(rng, g.FeatureDim())}
		for i := 0; i < 3; i++ {
			req.ColdStart.InNeighbors = append(req.ColdStart.InNeighbors, int32(rng.Intn(g.NumNodes)))
		}
	}
	b, _ := json.Marshal(req) // plain structs of numbers cannot fail to encode
	return b
}

// checkRoots picks the roots whose fresh answers are compared with the
// store: the highest in-degree node (a hub sets the k-hop tail) plus random
// ones.
func checkRoots(rng *tensor.RNG, g *graph.Graph) []int32 {
	hub := int32(0)
	for v := int32(0); v < int32(g.NumNodes); v++ {
		if g.InDegree(v) > g.InDegree(hub) {
			hub = v
		}
	}
	roots := []int32{hub}
	for len(roots) < verifyRoots {
		r := int32(rng.Intn(g.NumNodes))
		if r != hub {
			roots = append(roots, r)
		}
	}
	return roots
}

// rungSchedule is one query-only capacity rung: Poisson single-root queries
// at rate for dur.
func rungSchedule(seed int64, rung int, rate float64, g *graph.Graph, dur time.Duration) []event {
	rng := tensor.NewRNG(seed*31 + int64(rung)*1009 + 5)
	var evs []event
	t := 0.0
	for {
		t += expGap(rng) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return evs
		}
		body := fmt.Appendf(nil, `{"roots":[%d]}`, rng.Intn(g.NumNodes))
		evs = append(evs, event{kind: evQuery, at: at, path: "/v1/query", body: body})
	}
}
