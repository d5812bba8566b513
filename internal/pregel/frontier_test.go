package pregel

import (
	"testing"
)

// hopProg records the first superstep each vertex computed at (1-based so
// zero means "never computed") and relays a token along its out-edges, then
// halts. With a seeded frontier, computation floods outward one hop per
// superstep — the activation pattern the incremental GNN drivers rely on.
type hopProg struct{ hops int }

func (p *hopProg) Compute(ctx *Context[int]) {
	if *ctx.Value == 0 {
		*ctx.Value = ctx.Superstep + 1
	}
	if ctx.Superstep < p.hops {
		dsts, _ := ctx.OutEdges()
		for _, d := range dsts {
			ctx.SendColumnar(d, 0, ctx.ID, 1, nil)
		}
	}
	ctx.VoteToHalt()
}

func TestFrontierFloodsFromSeeds(t *testing.T) {
	const n = 12
	topo := ringTopology(t, n)
	for _, workers := range []int{1, 3} {
		prog := &hopProg{hops: 3}
		eng := NewEngine[int](topo, prog, Config{
			NumWorkers: workers, MaxSupersteps: 10, Frontier: []int32{0},
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		// Vertex v on the ring first computes at superstep v, for v <= hops
		// (relaying stops at superstep hops); later vertices never run.
		for v, got := range eng.Values() {
			want := 0
			if v <= 3 {
				want = v + 1
			}
			if got != want {
				t.Fatalf("workers=%d vertex %d first-computed %d, want %d", workers, v, got, want)
			}
		}
		// Frontier size per superstep is observable through StepMetrics.
		for s, step := range eng.Metrics() {
			active := 0
			for _, m := range step {
				active += m.ActiveVertices
			}
			if active != 1 {
				t.Fatalf("superstep %d: %d active vertices, want 1", s, active)
			}
		}
	}
}

func TestFrontierMultipleSeeds(t *testing.T) {
	const n = 10
	topo := ringTopology(t, n)
	prog := &hopProg{hops: 1}
	eng := NewEngine[int](topo, prog, Config{
		NumWorkers: 2, MaxSupersteps: 5, Frontier: []int32{2, 7},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[int]int{2: 1, 7: 1, 3: 2, 8: 2}
	for v, got := range eng.Values() {
		if got != want[v] {
			t.Fatalf("vertex %d first-computed %d, want %d", v, got, want[v])
		}
	}
}

func TestFrontierEmptyTerminatesImmediately(t *testing.T) {
	topo := ringTopology(t, 8)
	eng := NewEngine[int](topo, &hopProg{hops: 3}, Config{
		NumWorkers: 2, MaxSupersteps: 5, Frontier: []int32{},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Supersteps() != 0 {
		t.Fatalf("supersteps = %d, want 0", eng.Supersteps())
	}
	for v, got := range eng.Values() {
		if got != 0 {
			t.Fatalf("vertex %d computed (%d) despite empty frontier", v, got)
		}
	}
}

func TestFrontierOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range frontier vertex")
		}
	}()
	NewEngine[int](ringTopology(t, 4), &hopProg{}, Config{
		NumWorkers: 1, Frontier: []int32{9},
	})
}
