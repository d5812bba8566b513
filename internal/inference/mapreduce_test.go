package inference

import (
	"fmt"
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/graph"
)

// TestMapReduceEqualsPregel pins the two backends to each other bit for
// bit: both deliver every node's messages in ascending source order and fold
// them with the same segment-reduce kernels, so for every conv type, hub
// strategy, worker count and placement the MapReduce logits must Equal the
// Pregel logits. Partial-gather is the one exception (see DESIGN.md): each
// backend's combiner folds per producing task, and a Pregel worker and a
// MapReduce map task do not hold the same sources, so those configurations
// agree within tolerance and are each bit-identical run to run.
func TestMapReduceEqualsPregel(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 300)
	strategies := []struct {
		name   string
		bc, sn bool
	}{{"none", false, false}, {"bc", true, false}, {"sn", false, true}, {"bc+sn", true, true}}
	placements := []struct {
		name string
		s    graph.Strategy
	}{{"hash", nil}, {"ldg", graph.LDG{}}}
	for name, m := range testModels(t) {
		for _, s := range strategies {
			for _, workers := range []int{1, 4, 16} {
				for _, p := range placements {
					opts := Options{
						NumWorkers: workers, Partitioner: p.s, HubThreshold: 10,
						Broadcast: s.bc, ShadowNodes: s.sn, Parallel: true,
					}
					label := fmt.Sprintf("%s/%s/w%d/%s", name, s.name, workers, p.name)
					pg, err := RunPregel(m, g, opts)
					if err != nil {
						t.Fatalf("%s pregel: %v", label, err)
					}
					mr, err := RunMapReduce(m, g, opts)
					if err != nil {
						t.Fatalf("%s mapreduce: %v", label, err)
					}
					if !mr.Logits.Equal(pg.Logits) {
						t.Errorf("%s: mapreduce differs from pregel by %v", label, mr.Logits.MaxAbsDiff(pg.Logits))
					}

					opts.PartialGather = true
					label += "/pg"
					pg, err = RunPregel(m, g, opts)
					if err != nil {
						t.Fatalf("%s pregel: %v", label, err)
					}
					mr, err = RunMapReduce(m, g, opts)
					if err != nil {
						t.Fatalf("%s mapreduce: %v", label, err)
					}
					again, err := RunMapReduce(m, g, opts)
					if err != nil {
						t.Fatalf("%s mapreduce: %v", label, err)
					}
					if !mr.Logits.AllClose(pg.Logits, logitTol) {
						t.Errorf("%s: mapreduce differs from pregel by %v", label, mr.Logits.MaxAbsDiff(pg.Logits))
					}
					if !again.Logits.Equal(mr.Logits) {
						t.Errorf("%s: mapreduce not bit-identical run to run", label)
					}
				}
			}
		}
	}
}
