package pregel

import (
	"slices"
	"testing"

	"inferturbo/internal/graph"
)

// The sum program: an integer-valued computation over [value, srcID, count]
// payloads. Every quantity stays an integer well below 2^24, so float32
// arithmetic is exact and any divergence from the sequential reference (or
// across worker counts) is a real delivery bug, not rounding.

const sumMod = 9973

type colSumProg struct{ rounds int }

func (p *colSumProg) Compute(ctx *Context[float32]) {
	if ctx.Superstep == 0 {
		*ctx.Value = float32(int(ctx.ID)%7 + 1)
	} else {
		in := ctx.ColumnarInbox()
		var s float32
		for i := 0; i < in.Len(); i++ {
			s += in.Payloads[i][0] + in.Payloads[i][2]
		}
		*ctx.Value = float32(int(s) % sumMod)
	}
	if ctx.Superstep >= p.rounds {
		ctx.VoteToHalt()
		return
	}
	dsts, _ := ctx.OutEdges()
	pay := [3]float32{*ctx.Value, float32(ctx.ID), 1}
	for _, d := range dsts {
		ctx.SendColumnar(d, 0, ctx.ID, 1, pay[:])
	}
}

func colSumCombiner(_ uint8, acc, pay []float32, accCount, payCount int32) (int32, bool) {
	for i, v := range pay {
		acc[i] += v
	}
	return accCount + payCount, true
}

func runColSum(t *testing.T, topo Topology, workers int, combine, parallel bool) (*Engine[float32], []float32) {
	t.Helper()
	ops := &ColumnarOps{}
	if combine {
		ops.Combine = colSumCombiner
	}
	cfg := Config{NumWorkers: workers, Parallel: parallel, Columnar: ops}
	eng := NewEngine[float32](topo, &colSumProg{rounds: 4}, cfg)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng, append([]float32(nil), eng.Values()...)
}

// referenceSum runs colSumProg's computation sequentially: every vertex
// starts at id%7+1, and each of rounds updates replaces it with the sum of
// value+1 over its in-edges' sources, modulo sumMod.
func referenceSum(topo Topology, rounds int) []float32 {
	n := topo.NumVertices()
	val := make([]int, n)
	for v := range val {
		val[v] = v%7 + 1
	}
	for r := 0; r < rounds; r++ {
		next := make([]int, n)
		for u := 0; u < n; u++ {
			dsts, _ := topo.OutEdges(int32(u))
			for _, d := range dsts {
				next[d] += val[u] + 1
			}
		}
		for v := range next {
			next[v] %= sumMod
		}
		val = next
	}
	out := make([]float32, n)
	for v, x := range val {
		out[v] = float32(x)
	}
	return out
}

// referenceTraffic predicts colSumProg's per-worker message counts under
// hash placement from the topology alone: every vertex sends along every
// out-edge in each of rounds supersteps, and with combining one sending
// worker's messages for one destination fold into a single row per
// superstep.
func referenceTraffic(topo Topology, workers, rounds int, combine bool) (sent, received, combined []int64) {
	part := graph.NewPartitioner(workers)
	sent, received, combined = make([]int64, workers), make([]int64, workers), make([]int64, workers)
	seen := map[[2]int32]bool{} // (sending worker, destination)
	for u := int32(0); u < int32(topo.NumVertices()); u++ {
		sw := part.WorkerFor(u)
		dsts, _ := topo.OutEdges(u)
		for _, d := range dsts {
			key := [2]int32{int32(sw), d}
			if combine && seen[key] {
				combined[sw] += int64(rounds)
				continue
			}
			seen[key] = true
			sent[sw] += int64(rounds)
			received[part.WorkerFor(d)] += int64(rounds)
		}
	}
	return sent, received, combined
}

// TestColumnarMatchesReference: values must equal the sequential reference,
// and every worker's message counts, wire bytes (the default 4*3+16 per
// message) and combine counts must equal the ones predicted from the
// topology — at every worker count, serial and parallel, with and without
// combining.
func TestColumnarMatchesReference(t *testing.T) {
	topo := randomTopology(t, 60, 240, 11)
	want := referenceSum(topo, 4)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, combine := range []bool{false, true} {
			sent, received, combined := referenceTraffic(topo, workers, 4, combine)
			for _, parallel := range []bool{false, true} {
				eng, got := runColSum(t, topo, workers, combine, parallel)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("workers=%d combine=%v parallel=%v: value[%d] = %v, reference %v",
							workers, combine, parallel, v, got[v], want[v])
					}
				}
				for w, m := range eng.TotalMetrics() {
					if m.MessagesSent != sent[w] || m.MessagesReceived != received[w] ||
						m.BytesSent != 28*sent[w] || m.BytesReceived != 28*received[w] ||
						m.CombinedAway != combined[w] {
						t.Fatalf("workers=%d combine=%v parallel=%v: worker %d metrics %+v, want sent=%d received=%d combined=%d",
							workers, combine, parallel, w, m, sent[w], received[w], combined[w])
					}
				}
			}
		}
	}
}

// TestColumnarWorkerCountInvariant: integer-exact combining means results
// must not depend on how vertices are partitioned.
func TestColumnarWorkerCountInvariant(t *testing.T) {
	topo := randomTopology(t, 80, 400, 12)
	_, ref := runColSum(t, topo, 1, true, false)
	for _, workers := range []int{2, 3, 5, 8} {
		_, got := runColSum(t, topo, workers, true, true)
		for v := range ref {
			if ref[v] != got[v] {
				t.Fatalf("workers=%d changed value[%d]: %v vs %v", workers, v, got[v], ref[v])
			}
		}
	}
}

// orderProgCol sends three messages from every vertex to vertex 0 and
// records the (src, seq) order in which vertex 0 receives them.
type orderProgCol struct{ got []int32 }

func (p *orderProgCol) Compute(ctx *Context[int]) {
	switch ctx.Superstep {
	case 0:
		for s := int32(0); s < 3; s++ {
			ctx.SendColumnar(0, 0, ctx.ID, s, []float32{float32(ctx.ID), float32(s), 0})
		}
	case 1:
		if ctx.ID == 0 {
			in := ctx.ColumnarInbox()
			for i := 0; i < in.Len(); i++ {
				p.got = append(p.got, in.Srcs[i]*4+in.Counts[i])
			}
		}
		ctx.VoteToHalt()
	default:
		ctx.VoteToHalt()
	}
}

// edgeOrderProg sends three messages along every out-edge at superstep 0
// and records, at superstep 1, the (src, seq) order of every vertex's inbox.
// Each vertex writes only its own slot, so parallel runs are race-free.
type edgeOrderProg struct{ got [][]int32 }

func (p *edgeOrderProg) Compute(ctx *Context[int]) {
	if ctx.Superstep == 0 {
		dsts, _ := ctx.OutEdges()
		for _, d := range dsts {
			for s := int32(0); s < 3; s++ {
				ctx.SendColumnar(d, 0, ctx.ID, s, nil)
			}
		}
		return
	}
	in := ctx.ColumnarInbox()
	for i := 0; i < in.Len(); i++ {
		p.got[ctx.ID] = append(p.got[ctx.ID], in.Srcs[i]*4+in.Counts[i])
	}
	ctx.VoteToHalt()
}

// TestColumnarDeliveryOrderMatchesTopology: per-destination message order is
// part of the engine contract — globally ascending source id, emission order
// within a source (multi-edges included). The expected order of every inbox
// is computed from the topology alone; serial and parallel delivery, every
// worker count and both placements must reproduce it exactly.
func TestColumnarDeliveryOrderMatchesTopology(t *testing.T) {
	topo := randomTopology(t, 40, 160, 13)
	n := topo.NumVertices()
	want := make([][]int32, n)
	for u := int32(0); u < int32(n); u++ {
		dsts, _ := topo.OutEdges(u)
		for _, d := range dsts {
			for s := int32(0); s < 3; s++ {
				want[d] = append(want[d], u*4+s)
			}
		}
	}
	for _, workers := range []int{1, 2, 4, 5} {
		for name, part := range map[string]graph.Partitioner{"hash": nil, "ldg": ldgFor(t, topo, workers)} {
			for _, parallel := range []bool{false, true} {
				p := &edgeOrderProg{got: make([][]int32, n)}
				eng := NewEngine[int](topo, p, Config{
					NumWorkers: workers, MaxSupersteps: 4, Parallel: parallel, Partitioner: part,
				})
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				for v := range want {
					if !slices.Equal(p.got[v], want[v]) {
						t.Fatalf("workers=%d %s parallel=%v: vertex %d received %v, want %v",
							workers, name, parallel, v, p.got[v], want[v])
					}
				}
			}
		}
	}
}

// mailProg exercises columnar worker mailboxes.
type mailProg struct {
	sawMail []bool // indexed by worker id
}

func (p *mailProg) Compute(ctx *Context[int]) {
	switch ctx.Superstep {
	case 0:
		if ctx.ID == 0 {
			for w := 0; w < ctx.NumWorkers(); w++ {
				ctx.SendColumnarToWorker(w, 7, ctx.ID, 0, []float32{42, 43})
			}
		}
	case 1:
		mail := ctx.ColumnarMailbox()
		for i := 0; i < mail.Len(); i++ {
			if mail.Kinds[i] == 7 && mail.Srcs[i] == 0 &&
				len(mail.Payloads[i]) == 2 && mail.Payloads[i][0] == 42 && mail.Payloads[i][1] == 43 {
				p.sawMail[ctx.WorkerID()] = true
			}
		}
		ctx.VoteToHalt()
	default:
		ctx.VoteToHalt()
	}
}

func TestColumnarWorkerMailDelivered(t *testing.T) {
	topo := ringTopology(t, 9)
	prog := &mailProg{sawMail: make([]bool, 3)}
	eng := NewEngine[int](topo, prog, Config{NumWorkers: 3, MaxSupersteps: 4})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for w, saw := range prog.sawMail {
		if !saw {
			t.Fatalf("worker %d never saw its mailbox payload", w)
		}
	}
	var received int64
	for _, m := range eng.TotalMetrics() {
		received += m.MessagesReceived
	}
	if received < 3 {
		t.Fatalf("worker mail not accounted: received=%d", received)
	}
}

// TestColumnarCombinerReducesTraffic: on a star graph each sending worker's
// messages for the hub merge in place into one arena row, without changing
// any value.
func TestColumnarCombinerReducesTraffic(t *testing.T) {
	b := starTopologyBuilder(101)
	run := func(combine bool) (values []float32, sent, combined int64) {
		ops := &ColumnarOps{}
		if combine {
			ops.Combine = colSumCombiner
		}
		eng := NewEngine[float32](b, &colSumProg{rounds: 2}, Config{NumWorkers: 4, Columnar: ops})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for _, m := range eng.TotalMetrics() {
			sent += m.MessagesSent
			combined += m.CombinedAway
		}
		return append([]float32(nil), eng.Values()...), sent, combined
	}
	plainVals, plainSent, _ := run(false)
	combVals, combSent, combined := run(true)
	if combSent >= plainSent {
		t.Fatalf("combiner did not reduce traffic: %d vs %d", combSent, plainSent)
	}
	if combined == 0 {
		t.Fatal("combiner merges not counted")
	}
	for v := range plainVals {
		if plainVals[v] != combVals[v] {
			t.Fatalf("combining changed value[%d]: %v vs %v", v, combVals[v], plainVals[v])
		}
	}
}

// TestColumnarBytesAccounting: a custom Bytes function sees the kind byte
// and the true arena extent of every message.
func TestColumnarBytesAccounting(t *testing.T) {
	topo := ringTopology(t, 6)
	prog := progFunc[int](func(ctx *Context[int]) {
		if ctx.Superstep == 0 {
			dsts, _ := ctx.OutEdges()
			for _, d := range dsts {
				ctx.SendColumnar(d, 1, ctx.ID, 0, nil)             // a reference: 12 bytes
				ctx.SendColumnar(d, 0, ctx.ID, 1, []float32{1, 2}) // a payload: 4*2+16
			}
		}
		ctx.VoteToHalt()
	})
	eng := NewEngine[int](topo, prog, Config{
		NumWorkers: 2, MaxSupersteps: 3,
		Columnar: &ColumnarOps{Bytes: func(kind uint8, payloadLen int) int {
			if kind == 1 {
				return 12
			}
			return 4*payloadLen + 16
		}},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var sentMsgs, sentBytes int64
	for _, m := range eng.TotalMetrics() {
		sentMsgs += m.MessagesSent
		sentBytes += m.BytesSent
	}
	if sentMsgs != 12 {
		t.Fatalf("sent %d messages, want 12", sentMsgs)
	}
	if want := int64(6*12 + 6*24); sentBytes != want {
		t.Fatalf("sent bytes = %d, want %d", sentBytes, want)
	}
}

// starTopologyBuilder builds a hub-at-0 star over n vertices.
func starTopologyBuilder(n int) Topology {
	b := graph.NewBuilder(n)
	for v := int32(1); v < int32(n); v++ {
		b.AddEdge(v, 0, nil)
	}
	return GraphTopology{G: b.Build()}
}

// colFanProg is colSumProg scattering through SendColumnarFan — the
// broadcast-safe fan path that stores each payload once per destination
// worker and aliases arena extents for the rest.
type colFanProg struct{ rounds int }

func (p *colFanProg) Compute(ctx *Context[float32]) {
	if ctx.Superstep == 0 {
		*ctx.Value = float32(int(ctx.ID)%7 + 1)
	} else {
		in := ctx.ColumnarInbox()
		var s float32
		for i := 0; i < in.Len(); i++ {
			s += in.Payloads[i][0] + in.Payloads[i][2]
		}
		*ctx.Value = float32(int(s) % sumMod)
	}
	if ctx.Superstep >= p.rounds {
		ctx.VoteToHalt()
		return
	}
	dsts, _ := ctx.OutEdges()
	pay := [3]float32{*ctx.Value, float32(ctx.ID), 1}
	ctx.SendColumnarFan(dsts, 0, ctx.ID, 1, pay[:])
}

// TestColumnarFanMatchesPerEdgeSends: fanning one payload along every
// out-edge must be indistinguishable from issuing individual SendColumnar
// calls — values, traffic accounting and combine counts — at every worker
// count, with and without combining, including on a hub-heavy star where
// extents are maximally aliased and the combiner must copy-on-merge instead
// of folding into a shared extent.
func TestColumnarFanMatchesPerEdgeSends(t *testing.T) {
	for _, topo := range []Topology{
		randomTopology(t, 60, 240, 19),
		starTopologyBuilder(40),
	} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, combine := range []bool{false, true} {
				for _, parallel := range []bool{false, true} {
					ce, cv := runColSum(t, topo, workers, combine, parallel)
					ops := &ColumnarOps{}
					if combine {
						ops.Combine = colSumCombiner
					}
					fe := NewEngine[float32](topo, &colFanProg{rounds: 4},
						Config{NumWorkers: workers, Parallel: parallel, Columnar: ops})
					if err := fe.Run(); err != nil {
						t.Fatal(err)
					}
					for v := range cv {
						if cv[v] != fe.Values()[v] {
							t.Fatalf("workers=%d combine=%v parallel=%v: value[%d] per-edge %v fan %v",
								workers, combine, parallel, v, cv[v], fe.Values()[v])
						}
					}
					cm, fm := ce.TotalMetrics(), fe.TotalMetrics()
					for w := range cm {
						if cm[w] != fm[w] {
							t.Fatalf("workers=%d combine=%v parallel=%v: worker %d metrics diverge:\nper-edge %+v\nfan      %+v",
								workers, combine, parallel, w, cm[w], fm[w])
						}
					}
				}
			}
		}
	}
}

// TestColumnarFanMultiEdge: duplicate destinations inside one fan must see
// the pristine payload for every appended copy even after a combine has
// folded into the first row — the copy-on-merge materialization at work.
func TestColumnarFanMultiEdge(t *testing.T) {
	b := graph.NewBuilder(3)
	// Vertex 0 sends to 1 three times and 2 once; with combining, rows for
	// dst 1 merge while dst 2's alias must keep reading the original value.
	b.AddEdge(0, 1, nil)
	b.AddEdge(0, 1, nil)
	b.AddEdge(0, 2, nil)
	b.AddEdge(0, 1, nil)
	topo := GraphTopology{G: b.Build()}
	for _, combine := range []bool{false, true} {
		ce, cv := runColSum(t, topo, 2, combine, false)
		ops := &ColumnarOps{}
		if combine {
			ops.Combine = colSumCombiner
		}
		fe := NewEngine[float32](topo, &colFanProg{rounds: 4},
			Config{NumWorkers: 2, Columnar: ops})
		if err := fe.Run(); err != nil {
			t.Fatal(err)
		}
		for v := range cv {
			if cv[v] != fe.Values()[v] {
				t.Fatalf("combine=%v: value[%d] per-edge %v fan %v", combine, v, cv[v], fe.Values()[v])
			}
		}
		cm, fm := ce.TotalMetrics(), fe.TotalMetrics()
		for w := range cm {
			if cm[w] != fm[w] {
				t.Fatalf("combine=%v: worker %d metrics diverge", combine, w)
			}
		}
	}
}
