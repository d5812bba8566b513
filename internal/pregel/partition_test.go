package pregel

import (
	"testing"

	"inferturbo/internal/graph"
)

// ldgFor builds an LDG placement of the test topology (adapted back to the
// underlying graph).
func ldgFor(t *testing.T, topo Topology, workers int) graph.Partitioner {
	t.Helper()
	gt, ok := topo.(GraphTopology)
	if !ok {
		t.Fatal("test topology must wrap a graph")
	}
	return graph.LDG{}.Partition(gt.G, workers)
}

// TestPlacementDoesNotChangeValues: the engine's headline invariant for
// pluggable partitioning — an integer-exact program produces identical
// values under hash and LDG placements, at every worker count, with and
// without combining.
func TestPlacementDoesNotChangeValues(t *testing.T) {
	topo := randomTopology(t, 80, 400, 21)
	_, ref := runColSum(t, topo, 1, false, false)
	for _, workers := range []int{2, 4, 8} {
		for _, combine := range []bool{false, true} {
			part := ldgFor(t, topo, workers)
			ops := &ColumnarOps{}
			if combine {
				ops.Combine = colSumCombiner
			}
			ce := NewEngine[float32](topo, &colSumProg{rounds: 4}, Config{
				NumWorkers: workers, Columnar: ops, Partitioner: part, Parallel: true,
			})
			if err := ce.Run(); err != nil {
				t.Fatal(err)
			}
			for v := range ref {
				if ce.Values()[v] != ref[v] {
					t.Fatalf("workers=%d combine=%v: LDG value[%d] = %v, hash-1-worker %v",
						workers, combine, v, ce.Values()[v], ref[v])
				}
			}
		}
	}
}

// TestDeliveryOrderIsCanonical: every destination receives its messages in
// globally ascending source id order (emission order within a source),
// independent of worker count and placement.
func TestDeliveryOrderIsCanonical(t *testing.T) {
	topo := ringTopology(t, 13)
	want := make([]int32, 0, 13*3)
	for src := int32(0); src < 13; src++ {
		for s := int32(0); s < 3; s++ {
			want = append(want, src*4+s)
		}
	}
	run := func(workers int, part graph.Partitioner) []int32 {
		cp := &orderProgCol{}
		ce := NewEngine[int](topo, cp, Config{
			NumWorkers: workers, MaxSupersteps: 4, Parallel: true, Partitioner: part,
		})
		if err := ce.Run(); err != nil {
			t.Fatal(err)
		}
		return cp.got
	}
	for _, workers := range []int{1, 2, 4, 5} {
		for name, part := range map[string]graph.Partitioner{
			"hash": nil,
			"ldg":  ldgFor(t, topo, workers),
		} {
			got := run(workers, part)
			if len(got) != len(want) {
				t.Fatalf("workers=%d %s: received %d messages, want %d", workers, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d %s: delivery order diverges at %d: got %v want %v",
						workers, name, i, got, want)
				}
			}
		}
	}
}

// TestRemoteTrafficAccounting: a two-community graph placed by LDG must
// report less remote traffic than hash, while total sent traffic is
// identical; a single worker reports zero remote traffic.
func TestRemoteTrafficAccounting(t *testing.T) {
	// Two communities of 20, dense inside, one bridge each way.
	b := graph.NewBuilder(40)
	for c := 0; c < 2; c++ {
		base := int32(c * 20)
		for i := int32(0); i < 20; i++ {
			b.AddEdge(base+i, base+(i+1)%20, nil)
			b.AddEdge(base+i, base+(i+7)%20, nil)
		}
	}
	b.AddEdge(0, 20, nil)
	b.AddEdge(20, 0, nil)
	topo := GraphTopology{G: b.Build()}

	totals := func(part graph.Partitioner, workers int) (sent, remote int64) {
		eng := NewEngine[float32](topo, &colSumProg{rounds: 3}, Config{
			NumWorkers: workers, Partitioner: part,
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for _, m := range eng.TotalMetrics() {
			sent += m.MessagesSent
			remote += m.RemoteMessagesSent
		}
		return sent, remote
	}
	hashSent, hashRemote := totals(nil, 2)
	ldgSent, ldgRemote := totals(ldgFor(t, topo, 2), 2)
	if hashSent != ldgSent {
		t.Fatalf("placement changed total traffic: %d vs %d", hashSent, ldgSent)
	}
	if ldgRemote >= hashRemote {
		t.Fatalf("LDG remote %d not below hash remote %d on a community graph", ldgRemote, hashRemote)
	}
	if _, remote := totals(nil, 1); remote != 0 {
		t.Fatalf("single worker reported %d remote messages", remote)
	}
}

// TestPartitionerWorkerCountMismatchPanics: a partitioner built for a
// different worker count is a configuration bug the engine rejects.
func TestPartitionerWorkerCountMismatchPanics(t *testing.T) {
	topo := ringTopology(t, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine[int](topo, &hopProg{}, Config{
		NumWorkers: 3, Partitioner: graph.NewPartitioner(2),
	})
}
