package inference

import (
	"fmt"
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/graph"
)

// Pipelined-plane equivalence tests: chunked eager flushing and background
// inbox assembly are a pure scheduling change, so the pipelined plane must
// produce bit-identical logits AND identical IO accounting against the BSP
// columnar plane under every strategy combination, on both compute planes,
// at multiple chunk sizes and pipeline depths — and recover byte-identically
// from an injected mid-pipeline worker failure.

// requireSameRun asserts bit-identical logits and identical run stats.
func requireSameRun(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !want.Logits.Equal(got.Logits) {
		t.Fatalf("%s: logits diverge from the BSP plane: max diff %v",
			label, want.Logits.MaxAbsDiff(got.Logits))
	}
	ws, gs := want.Stats, got.Stats
	if ws.MessagesSent != gs.MessagesSent || ws.BytesSent != gs.BytesSent ||
		ws.BytesReceived != gs.BytesReceived || ws.RemoteMessages != gs.RemoteMessages ||
		ws.RemoteBytes != gs.RemoteBytes || ws.CombinedAway != gs.CombinedAway ||
		ws.BroadcastHubs != gs.BroadcastHubs || ws.Supersteps != gs.Supersteps {
		t.Fatalf("%s: stats diverge from the BSP plane:\nbsp       %+v\npipelined %+v", label, ws, gs)
	}
}

func TestPipelinedPlaneBitIdenticalAllStrategies(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 230)
	m := sageModel(t)
	for _, workers := range []int{1, 4, 8} {
		for _, parallel := range []bool{false, true} {
			for _, opts := range strategyCombos(workers, parallel) {
				bsp, err := RunPregel(m, g, opts)
				if err != nil {
					t.Fatalf("%s bsp: %v", comboName(opts), err)
				}
				for _, chunk := range []int{1, 17, 512} {
					po := opts
					po.Pipelined = true
					po.PipelineChunk = chunk
					po.PipelineDepth = 2
					pipe, err := RunPregel(m, g, po)
					if err != nil {
						t.Fatalf("%s pipelined: %v", comboName(opts), err)
					}
					requireSameRun(t, fmt.Sprintf("%s/chunk=%d/batched", comboName(opts), chunk), bsp, pipe)
					pv := po
					pv.PerVertexCompute = true
					pipePV, err := RunPregel(m, g, pv)
					if err != nil {
						t.Fatalf("%s pipelined per-vertex: %v", comboName(opts), err)
					}
					requireSameRun(t, fmt.Sprintf("%s/chunk=%d/per-vertex", comboName(opts), chunk), bsp, pipePV)
				}
			}
		}
	}
}

// TestPipelinedPlacementBitIdentical: pipelining composes with locality-aware
// placement — results stay bit-identical to the BSP plane under LDG too.
func TestPipelinedPlacementBitIdentical(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 260)
	m := sageModel(t)
	for _, strat := range []graph.Strategy{graph.Hash{}, graph.LDG{}} {
		opts := Options{NumWorkers: 8, Partitioner: strat, Broadcast: true, Parallel: true}
		bsp, err := RunPregel(m, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		po := opts
		po.Pipelined = true
		po.PipelineChunk = 8
		pipe, err := RunPregel(m, g, po)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRun(t, strat.Name(), bsp, pipe)
	}
}

// TestPipelinedRecoveryByteIdentical is the checkpoint/recovery acceptance
// test for the pipelined plane: a crash partway through a run must replay
// byte-identically on both compute planes. Checkpoints fall between
// supersteps, after every in-flight sealed extent has drained into the
// snapshotted inbox, so the snapshot's in-flight state is complete by
// construction.
func TestPipelinedRecoveryByteIdentical(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 240)
	m := sageModel(t)
	for _, perVertex := range []bool{false, true} {
		opts := Options{
			NumWorkers: 6, PartialGather: true, Parallel: true,
			Pipelined: true, PipelineChunk: 7,
			PerVertexCompute: perVertex,
			CheckpointEvery:  1,
		}
		clean, err := RunPregel(m, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		failing := opts
		failing.Faults = crashBefore(2)
		recovered, err := RunPregel(m, g, failing)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("perVertex=%v", perVertex)
		requireSameRun(t, label+"/recovered", clean, recovered)
		// And the recovered pipelined run matches the BSP plane bit for bit.
		bspOpts := opts
		bspOpts.Pipelined, bspOpts.PipelineChunk, bspOpts.CheckpointEvery = false, 0, 0
		bsp, err := RunPregel(m, g, bspOpts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRun(t, label+"/vs-bsp", bsp, recovered)
	}
}
