package pregel

import (
	"strconv"
	"testing"
)

// The pipelined plane must be a pure scheduling change: chunked eager
// flushing and background inbox assembly may move delivery work around, but
// values, per-destination delivery order, and every metric must stay
// bit-identical to the BSP path at any chunk size, pipeline depth,
// worker count, and parallelism setting.

// pipeCfg builds a pipelined config.
func pipeCfg(workers int, combine, parallel bool, chunk int) Config {
	ops := &ColumnarOps{}
	if combine {
		ops.Combine = colSumCombiner
	}
	return Config{
		NumWorkers: workers,
		Parallel:   parallel,
		Columnar:   ops,
		Pipelined:  true,
		ChunkSize:  chunk,
	}
}

func runPipelined(t *testing.T, topo Topology, prog VertexProgram[float32], cfg Config) (*Engine[float32], []float32) {
	t.Helper()
	eng := NewEngine[float32](topo, prog, cfg)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng, append([]float32(nil), eng.Values()...)
}

// requireSameMetrics compares the full per-superstep, per-worker metric
// history — not just totals — so a pipelined run that shifted accounting to
// the wrong superstep fails loudly.
func requireSameMetrics(t *testing.T, label string, want, got *Engine[float32]) {
	t.Helper()
	wm, gm := want.Metrics(), got.Metrics()
	if len(wm) != len(gm) {
		t.Fatalf("%s: superstep counts diverge: %d vs %d", label, len(wm), len(gm))
	}
	for s := range wm {
		for w := range wm[s] {
			if wm[s][w] != gm[s][w] {
				t.Fatalf("%s: superstep %d worker %d metrics diverge:\nbsp       %+v\npipelined %+v",
					label, s, w, wm[s][w], gm[s][w])
			}
		}
	}
}

// TestPipelinedMatchesBSP: the tentpole invariant over the per-vertex
// columnar program, at chunk sizes from degenerate (1 vertex) to larger than
// any partition.
func TestPipelinedMatchesBSP(t *testing.T) {
	topo := randomTopology(t, 60, 240, 11)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, combine := range []bool{false, true} {
			for _, parallel := range []bool{false, true} {
				be, bv := runColSum(t, topo, workers, combine, parallel)
				for _, chunk := range []int{1, 3, 16, 1024} {
					pe, pv := runPipelined(t, topo, &colSumProg{rounds: 4}, pipeCfg(workers, combine, parallel, chunk))
					label := labelf(workers, combine, parallel, chunk)
					for v := range bv {
						if bv[v] != pv[v] {
							t.Fatalf("%s: value[%d] bsp %v pipelined %v", label, v, bv[v], pv[v])
						}
					}
					requireSameMetrics(t, label, be, pe)
				}
			}
		}
	}
}

func labelf(workers int, combine, parallel bool, chunk int) string {
	l := "workers=" + strconv.Itoa(workers) + "/chunk=" + strconv.Itoa(chunk)
	if combine {
		l += "/combine"
	}
	if parallel {
		l += "/parallel"
	}
	return l
}

// TestPipelinedFanMatchesBSP: the fan path's shared extents and
// copy-on-merge must survive chunked sealing — including on a star, where a
// hub fans maximally aliased payloads across chunk boundaries.
func TestPipelinedFanMatchesBSP(t *testing.T) {
	for _, topo := range []Topology{
		randomTopology(t, 60, 240, 19),
		starTopologyBuilder(40),
	} {
		for _, workers := range []int{1, 4} {
			for _, combine := range []bool{false, true} {
				ops := &ColumnarOps{}
				if combine {
					ops.Combine = colSumCombiner
				}
				fe := NewEngine[float32](topo, &colFanProg{rounds: 4},
					Config{NumWorkers: workers, Columnar: ops})
				if err := fe.Run(); err != nil {
					t.Fatal(err)
				}
				for _, chunk := range []int{2, 7} {
					pe, pv := runPipelined(t, topo, &colFanProg{rounds: 4}, pipeCfg(workers, combine, true, chunk))
					for v := range pv {
						if fe.Values()[v] != pv[v] {
							t.Fatalf("workers=%d combine=%v chunk=%d: value[%d] bsp %v pipelined %v",
								workers, combine, chunk, v, fe.Values()[v], pv[v])
						}
					}
					requireSameMetrics(t, labelf(workers, combine, true, chunk), fe, pe)
				}
			}
		}
	}
}

// TestPipelinedBatchedMatchesBSP: the batched plane drives the pipeline
// itself through BatchContext.FlushChunk; results and metrics must match the
// BSP batched run (and, transitively, the per-vertex planes).
func TestPipelinedBatchedMatchesBSP(t *testing.T) {
	topo := randomTopology(t, 60, 240, 11)
	for _, workers := range []int{1, 3, 8} {
		for _, combine := range []bool{false, true} {
			for _, parallel := range []bool{false, true} {
				be, bv := runBatchSum(t, topo, workers, combine, parallel)
				for _, chunk := range []int{4, 32} {
					cfg := pipeCfg(workers, combine, parallel, chunk)
					cfg.Batched = true
					pe, pv := runPipelined(t, topo, newBatchSumProg(4, workers), cfg)
					label := labelf(workers, combine, parallel, chunk)
					for v := range bv {
						if bv[v] != pv[v] {
							t.Fatalf("%s: value[%d] bsp-batched %v pipelined-batched %v", label, v, bv[v], pv[v])
						}
					}
					requireSameMetrics(t, label, be, pe)
				}
			}
		}
	}
}

// TestPipelinedDeliveryOrder: the ownership-order merge must reproduce the
// BSP merge's per-destination delivery order exactly.
func TestPipelinedDeliveryOrder(t *testing.T) {
	topo := ringTopology(t, 13)
	for _, workers := range []int{1, 2, 4, 5} {
		bp := &orderProgCol{}
		be := NewEngine[int](topo, bp, Config{NumWorkers: workers, MaxSupersteps: 4})
		if err := be.Run(); err != nil {
			t.Fatal(err)
		}
		pp := &orderProgCol{}
		pe := NewEngine[int](topo, pp, Config{
			NumWorkers: workers, MaxSupersteps: 4, Parallel: true,
			Pipelined: true, ChunkSize: 2, PipelineDepth: 1,
		})
		if err := pe.Run(); err != nil {
			t.Fatal(err)
		}
		if len(bp.got) != len(pp.got) || len(bp.got) != 13*3 {
			t.Fatalf("workers=%d: bsp received %d, pipelined %d, want %d", workers, len(bp.got), len(pp.got), 13*3)
		}
		for i := range bp.got {
			if bp.got[i] != pp.got[i] {
				t.Fatalf("workers=%d: delivery order diverges at %d: bsp %v pipelined %v",
					workers, i, bp.got, pp.got)
			}
		}
	}
}

// TestPipelinedWorkerMail: worker mailboxes assembled from sealed extents
// must arrive with the same contents and sender-major order.
func TestPipelinedWorkerMail(t *testing.T) {
	topo := ringTopology(t, 9)
	prog := &mailProg{sawMail: make([]bool, 3)}
	eng := NewEngine[int](topo, prog, Config{
		NumWorkers: 3, MaxSupersteps: 4, Pipelined: true, ChunkSize: 1,
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for w, saw := range prog.sawMail {
		if !saw {
			t.Fatalf("worker %d never saw its mailbox payload", w)
		}
	}
}

// frontierProg keeps only a tiny moving frontier sending: vertex k sends to
// its out-neighbors at superstep k, everyone else stays halted. Sparse
// supersteps drive the ownership merge's jump-to-lowest-head path (the
// frontier sources sit far apart in the id space).
type frontierProg struct{ rounds int }

func (p *frontierProg) Compute(ctx *Context[float32]) {
	if ctx.Superstep > 0 {
		in := ctx.ColumnarInbox()
		for i := 0; i < in.Len(); i++ {
			*ctx.Value += in.Payloads[i][0]
		}
	}
	if ctx.Superstep < p.rounds && int(ctx.ID) == ctx.Superstep*37%97 {
		dsts, _ := ctx.OutEdges()
		pay := [3]float32{float32(ctx.ID) + 1, float32(ctx.ID), 1}
		for _, d := range dsts {
			ctx.SendColumnar(d, 0, ctx.ID, 1, pay[:])
		}
	}
	ctx.VoteToHalt()
}

// TestPipelinedSparseFrontierMatchesBSP: converged-frontier supersteps (a
// handful of messages over a large id space) must still deliver exactly the
// BSP order and values — the sparse-scan jump is an optimization, not a
// semantic change.
func TestPipelinedSparseFrontierMatchesBSP(t *testing.T) {
	topo := randomTopology(t, 400, 1600, 23)
	run := func(cfg Config) (*Engine[float32], []float32) {
		cfg.MaxSupersteps = 12
		eng := NewEngine[float32](topo, &frontierProg{rounds: 10}, cfg)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng, append([]float32(nil), eng.Values()...)
	}
	for _, workers := range []int{3, 8} {
		be, bv := run(Config{NumWorkers: workers})
		pe, pv := run(Config{NumWorkers: workers, Pipelined: true, ChunkSize: 16, Parallel: true})
		for v := range bv {
			if bv[v] != pv[v] {
				t.Fatalf("workers=%d: value[%d] bsp %v pipelined %v", workers, v, bv[v], pv[v])
			}
		}
		requireSameMetrics(t, labelf(workers, false, true, 16), be, pe)
	}
}

// badSrcProg violates the SendColumnar src contract: every message claims
// src 0 regardless of the computing vertex.
type badSrcProg struct{}

func (badSrcProg) Compute(ctx *Context[float32]) {
	if ctx.Superstep >= 1 {
		ctx.VoteToHalt()
		return
	}
	dsts, _ := ctx.OutEdges()
	for _, d := range dsts {
		ctx.SendColumnar(d, 0, 0, 1, []float32{1})
	}
}

// TestPipelinedSrcContractPanic: a contract-violating program must fail with
// the deterministic stall panic, not lose messages silently.
func TestPipelinedSrcContractPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected the delivery-stall panic")
		}
	}()
	eng := NewEngine[float32](randomTopology(t, 40, 200, 5), badSrcProg{}, Config{
		NumWorkers: 4, MaxSupersteps: 3, Pipelined: true,
	})
	_ = eng.Run()
}
