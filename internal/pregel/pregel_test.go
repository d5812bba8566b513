package pregel

import (
	"math"
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

func ringTopology(t *testing.T, n int) Topology {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(int32(v), int32((v+1)%n), nil)
	}
	return GraphTopology{G: b.Build()}
}

func randomTopology(t *testing.T, n, e int, seed int64) Topology {
	t.Helper()
	rng := tensor.NewRNG(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < e; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), nil)
	}
	return GraphTopology{G: b.Build()}
}

func TestPageRankMatchesReference(t *testing.T) {
	topo := randomTopology(t, 100, 500, 1)
	prog := &pageRankProg{numVertices: 100, iterations: 20}
	eng := NewEngine[float64](topo, prog, Config{
		NumWorkers: 4, MaxSupersteps: 25, Columnar: &ColumnarOps{Combine: pageRankCombiner},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := ReferencePageRank(topo, 20)
	for v, got := range eng.Values() {
		if math.Abs(got-want[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want %v", v, got, want[v])
		}
	}
}

func TestPageRankRanksSum(t *testing.T) {
	topo := ringTopology(t, 50)
	prog := &pageRankProg{numVertices: 50, iterations: 10}
	eng := NewEngine[float64](topo, prog, Config{NumWorkers: 3})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range eng.Values() {
		sum += r
	}
	// On a ring (every vertex has out-degree 1) rank mass is conserved.
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("total rank = %v, want 1", sum)
	}
}

func TestPageRankIndependentOfWorkerCount(t *testing.T) {
	topo := randomTopology(t, 80, 400, 2)
	run := func(workers int) []float64 {
		prog := &pageRankProg{numVertices: 80, iterations: 15}
		eng := NewEngine[float64](topo, prog, Config{NumWorkers: workers})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 80)
		copy(out, eng.Values())
		return out
	}
	a, b := run(1), run(7)
	for v := range a {
		if math.Abs(a[v]-b[v]) > 1e-9 {
			t.Fatalf("rank[%d] differs across worker counts: %v vs %v", v, a[v], b[v])
		}
	}
}

func TestSSSPMatchesBFS(t *testing.T) {
	topo := randomTopology(t, 120, 400, 3)
	prog := &ssspProg{source: 0}
	eng := NewEngine[float64](topo, prog, Config{
		NumWorkers: 5, MaxSupersteps: 200, Columnar: &ColumnarOps{Combine: ssspCombiner},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := ReferenceSSSP(topo, 0)
	for v, got := range eng.Values() {
		if got != want[v] && !(math.IsInf(got, 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("dist[%d] = %v, want %v", v, got, want[v])
		}
	}
}

func TestSSSPHaltsBeforeMaxSupersteps(t *testing.T) {
	topo := ringTopology(t, 10)
	prog := &ssspProg{source: 0}
	eng := NewEngine[float64](topo, prog, Config{NumWorkers: 2, MaxSupersteps: 100})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// A 10-ring needs ~11 supersteps; the engine must not run to the cap.
	if eng.Supersteps() > 15 {
		t.Fatalf("supersteps = %d, expected early halt", eng.Supersteps())
	}
}

func TestCombinerReducesTraffic(t *testing.T) {
	// Star graph: all vertices point at 0 — a combiner should merge each
	// worker's messages to a single one per superstep.
	b := graph.NewBuilder(101)
	for v := int32(1); v <= 100; v++ {
		b.AddEdge(v, 0, nil)
	}
	topo := GraphTopology{G: b.Build()}

	run := func(combine bool) (sent int64, combined int64) {
		prog := &pageRankProg{numVertices: 101, iterations: 2}
		cfg := Config{NumWorkers: 4}
		if combine {
			cfg.Columnar = &ColumnarOps{Combine: pageRankCombiner}
		}
		eng := NewEngine[float64](topo, prog, cfg)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for _, m := range eng.TotalMetrics() {
			sent += m.MessagesSent
			combined += m.CombinedAway
		}
		return sent, combined
	}
	plainSent, _ := run(false)
	combSent, combined := run(true)
	if combSent >= plainSent {
		t.Fatalf("combiner did not reduce traffic: %d vs %d", combSent, plainSent)
	}
	if combined == 0 {
		t.Fatal("combiner merges not counted")
	}
}

func TestMetricsBalance(t *testing.T) {
	topo := randomTopology(t, 60, 300, 4)
	prog := &pageRankProg{numVertices: 60, iterations: 5}
	eng := NewEngine[float64](topo, prog, Config{NumWorkers: 3})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var sent, received int64
	for _, m := range eng.TotalMetrics() {
		sent += m.MessagesSent
		received += m.MessagesReceived
	}
	if sent != received {
		t.Fatalf("sent %d != received %d", sent, received)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	topo := randomTopology(t, 100, 600, 5)
	run := func(parallel bool) []float64 {
		prog := &pageRankProg{numVertices: 100, iterations: 10}
		eng := NewEngine[float64](topo, prog, Config{
			NumWorkers: 8, Parallel: parallel, Columnar: &ColumnarOps{Combine: pageRankCombiner},
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 100)
		copy(out, eng.Values())
		return out
	}
	seq, par := run(false), run(true)
	for v := range seq {
		if seq[v] != par[v] {
			t.Fatalf("parallel execution changed rank[%d]: %v vs %v", v, seq[v], par[v])
		}
	}
}

// TestMessageBytesAccounting: without a Bytes function every message is
// priced at the default 4*payloadLen+16 — 24 bytes for PageRank's two-word
// payload — on both the send and the receive side.
func TestMessageBytesAccounting(t *testing.T) {
	topo := ringTopology(t, 4)
	prog := &pageRankProg{numVertices: 4, iterations: 1}
	eng := NewEngine[float64](topo, prog, Config{NumWorkers: 2})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var sentMsgs, sentBytes, recvBytes int64
	for _, m := range eng.TotalMetrics() {
		sentMsgs += m.MessagesSent
		sentBytes += m.BytesSent
		recvBytes += m.BytesReceived
	}
	if sentMsgs != 4 || sentBytes != sentMsgs*24 || recvBytes != sentBytes {
		t.Fatalf("sent %d msgs, %d bytes, received %d bytes; want 4, 96, 96", sentMsgs, sentBytes, recvBytes)
	}
}

func TestEngineRejectsBadWorkerCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine[int](ringTopology(t, 3), &hopProg{}, Config{NumWorkers: 0})
}

func TestEngineOnPowerLawGraph(t *testing.T) {
	// Smoke: the engine handles a skewed graph and cost accounting piles up
	// on the hub's worker.
	ds := datagen.PowerLaw(500, datagen.SkewOut, 6)
	topo := GraphTopology{G: ds.Graph}
	prog := &pageRankProg{numVertices: ds.Graph.NumNodes, iterations: 3}
	eng := NewEngine[float64](topo, prog, Config{NumWorkers: 10})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var maxCost, minCost int64 = 0, 1 << 62
	for _, m := range eng.TotalMetrics() {
		if m.ComputeCost > maxCost {
			maxCost = m.ComputeCost
		}
		if m.ComputeCost < minCost {
			minCost = m.ComputeCost
		}
	}
	if maxCost <= minCost {
		t.Fatal("expected compute skew across workers on a power-law graph")
	}
}
