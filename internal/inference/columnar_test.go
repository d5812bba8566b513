package inference

import (
	"fmt"
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// Message-plane tests against an independent implementation: the per-vertex
// compute plane's columnar messaging (engine send buffers, sender-side
// combiner, source-merged delivery) must reproduce the MapReduce backend's
// columnar shuffle — bit for bit outside partial-gather, whose combiners
// group different sources per backend and so agree to tolerance — under
// every strategy combination, at every worker count, serial and parallel,
// with predictions byte-identical to the reference forward throughout.

// strategyCombos enumerates the paper's strategy power set.
func strategyCombos(workers int, parallel bool) []Options {
	var out []Options
	for _, pg := range []bool{false, true} {
		for _, bc := range []bool{false, true} {
			for _, sn := range []bool{false, true} {
				out = append(out, Options{
					NumWorkers:    workers,
					PartialGather: pg,
					Broadcast:     bc,
					ShadowNodes:   sn,
					Parallel:      parallel,
				})
			}
		}
	}
	return out
}

func comboName(o Options) string {
	return fmt.Sprintf("w%d/pg=%v/bc=%v/sn=%v/par=%v",
		o.NumWorkers, o.PartialGather, o.Broadcast, o.ShadowNodes, o.Parallel)
}

// requireMatchesMapReduce runs opts on the per-vertex Pregel plane and on
// the MapReduce backend and compares their logits: Equal, or AllClose under
// partial-gather.
func requireMatchesMapReduce(t *testing.T, label string, m *gas.Model, g *graph.Graph, opts Options) *Result {
	t.Helper()
	pv := opts
	pv.PerVertexCompute = true
	col, err := RunPregel(m, g, pv)
	if err != nil {
		t.Fatalf("%s pregel: %v", label, err)
	}
	mr, err := RunMapReduce(m, g, opts)
	if err != nil {
		t.Fatalf("%s mapreduce: %v", label, err)
	}
	same := col.Logits.Equal(mr.Logits)
	if opts.PartialGather {
		same = col.Logits.AllClose(mr.Logits, logitTol)
	}
	if !same {
		t.Fatalf("%s: per-vertex logits diverge from MapReduce: max diff %v",
			label, col.Logits.MaxAbsDiff(mr.Logits))
	}
	return col
}

func TestColumnarPlaneBitIdenticalAllStrategies(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 220)
	m := sageModel(t)
	wantClasses := tensor.ArgmaxRows(ReferenceForward(m, g))
	for _, workers := range []int{1, 2, 4, 8} {
		for _, parallel := range []bool{false, true} {
			for _, opts := range strategyCombos(workers, parallel) {
				col := requireMatchesMapReduce(t, comboName(opts), m, g, opts)
				for v, c := range col.Classes {
					if c != wantClasses[v] {
						t.Fatalf("%s: class of node %d = %d, reference %d", comboName(opts), v, c, wantClasses[v])
					}
				}
			}
		}
	}
}

// TestColumnarPlaneBitIdenticalGAT covers the union-reduce (GAT) path,
// where the combiner must decline and attention consumes raw message rows.
func TestColumnarPlaneBitIdenticalGAT(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 200)
	m := gatModel(t)
	wantClasses := tensor.ArgmaxRows(ReferenceForward(m, g))
	for _, workers := range []int{1, 4, 8} {
		for _, opts := range []Options{
			{NumWorkers: workers},
			{NumWorkers: workers, PartialGather: true, Parallel: true},
			{NumWorkers: workers, Broadcast: true, ShadowNodes: true, Parallel: true},
		} {
			col := requireMatchesMapReduce(t, "GAT "+comboName(opts), m, g, opts)
			for v, c := range col.Classes {
				if c != wantClasses[v] {
					t.Fatalf("%s: GAT class of node %d = %d, reference %d", comboName(opts), v, c, wantClasses[v])
				}
			}
		}
	}
}

// TestColumnarPlaneEdgeFeatures covers the edge-dependent apply_edge
// scatter path (per-edge payload construction into the arena).
func TestColumnarPlaneEdgeFeatures(t *testing.T) {
	ds := datagen.Generate(datagen.Config{
		Name: "col-ef", Nodes: 180, AvgDegree: 5, Skew: datagen.SkewOut,
		FeatureDim: 6, NumClasses: 3, Seed: 31, EdgeFeature: true,
	})
	m := gas.NewSAGEModel("sage-col-ef", gas.TaskSingleLabel, 6, 8, 3, 2, 4, tensor.NewRNG(32))
	for _, opts := range []Options{
		{NumWorkers: 1},
		{NumWorkers: 4, PartialGather: true},
		{NumWorkers: 8, PartialGather: true, ShadowNodes: true, Parallel: true},
	} {
		requireMatchesMapReduce(t, "edge-feature "+comboName(opts), m, ds.Graph, opts)
	}
}

// TestColumnarEmbeddingsMatchMapReduce: the per-vertex plane's retained
// penultimate rows must reproduce the MapReduce backend's embeddings —
// exactly without partial-gather, to tolerance with it.
func TestColumnarEmbeddingsMatchMapReduce(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 150)
	m := sageModel(t)
	for _, pg := range []bool{false, true} {
		opts := Options{NumWorkers: 5, PartialGather: pg, EmitEmbeddings: true}
		mr, err := RunMapReduce(m, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.PerVertexCompute = true
		col, err := RunPregel(m, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if col.Embeddings == nil || mr.Embeddings == nil {
			t.Fatalf("pg=%v: embeddings not emitted", pg)
		}
		same := col.Embeddings.Equal(mr.Embeddings)
		if pg {
			same = col.Embeddings.AllClose(mr.Embeddings, logitTol)
		}
		if !same {
			t.Fatalf("pg=%v: per-vertex embeddings diverge from MapReduce: max diff %v",
				pg, col.Embeddings.MaxAbsDiff(mr.Embeddings))
		}
	}
}
