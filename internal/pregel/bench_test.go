package pregel

import (
	"testing"

	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// Message-plane benchmarks: a GNN-shaped payload fan-out (16-wide state
// vectors along every edge, sender-side combining) measured end to end on
// the BSP and pipelined barriers. They isolate the costs the arena plane is
// built around: payload copies, in-place combining and per-vertex inbox
// rebuilding.

const benchDim = 16

type benchColProg struct{ rounds int }

func (p *benchColProg) Compute(ctx *Context[[]float32]) {
	if ctx.Superstep == 0 {
		v := make([]float32, benchDim)
		for i := range v {
			v[i] = float32(int(ctx.ID+int32(i)) % 13)
		}
		*ctx.Value = v
	} else {
		// SendColumnar copied last round's state into the arena, so the
		// program may accumulate into its state buffer in place — no
		// per-vertex allocation after initialization.
		in := ctx.ColumnarInbox()
		next := *ctx.Value
		for i := range next {
			next[i] = 0
		}
		for i := 0; i < in.Len(); i++ {
			for j, x := range in.Payloads[i] {
				next[j] += x
			}
		}
		for i := range next {
			next[i] = float32(int(next[i]) % 9973)
		}
	}
	if ctx.Superstep >= p.rounds {
		ctx.VoteToHalt()
		return
	}
	dsts, _ := ctx.OutEdges()
	for _, d := range dsts {
		ctx.SendColumnar(d, 0, ctx.ID, 1, *ctx.Value)
	}
}

func benchColCombiner(_ uint8, acc, pay []float32, accCount, payCount int32) (int32, bool) {
	for i, v := range pay {
		acc[i] += v
	}
	return accCount + payCount, true
}

func benchTopology(b *testing.B) Topology {
	b.Helper()
	rng := tensor.NewRNG(42)
	gb := graph.NewBuilder(2000)
	for i := 0; i < 16000; i++ {
		gb.AddEdge(int32(rng.Intn(2000)), int32(rng.Intn(2000)), nil)
	}
	return GraphTopology{G: gb.Build()}
}

const benchRounds = 6

func benchmarkPlane(b *testing.B, combine, parallel, pipelined bool) {
	topo := benchTopology(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := &ColumnarOps{}
		if combine {
			ops.Combine = benchColCombiner
		}
		eng := NewEngine[[]float32](topo, &benchColProg{rounds: benchRounds}, Config{
			NumWorkers: 8, Parallel: parallel, Columnar: ops, Pipelined: pipelined,
		})
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuperstepColumnar(b *testing.B)          { benchmarkPlane(b, false, false, false) }
func BenchmarkSuperstepColumnarCombine(b *testing.B)   { benchmarkPlane(b, true, false, false) }
func BenchmarkSuperstepColumnarParallel(b *testing.B)  { benchmarkPlane(b, true, true, false) }
func BenchmarkSuperstepPipelined(b *testing.B)         { benchmarkPlane(b, false, false, true) }
func BenchmarkSuperstepPipelinedCombine(b *testing.B)  { benchmarkPlane(b, true, false, true) }
func BenchmarkSuperstepPipelinedParallel(b *testing.B) { benchmarkPlane(b, true, true, true) }
