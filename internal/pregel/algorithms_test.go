package pregel

import "math"

// Classic graph-processing programs on the message plane, validated against
// single-threaded references (the paper motivates the GAS abstraction with
// exactly these workloads). PageRank ships its float64 rank shares as two
// float32 payload words holding the float64's bit halves, so the float32
// arenas carry them without rounding and the combiner adds in float64.

// f64Payload stores x's bits in buf and returns it as a payload.
func f64Payload(buf *[2]float32, x float64) []float32 {
	b := math.Float64bits(x)
	buf[0], buf[1] = math.Float32frombits(uint32(b>>32)), math.Float32frombits(uint32(b))
	return buf[:]
}

// payloadF64 decodes a payload written by f64Payload.
func payloadF64(p []float32) float64 {
	return math.Float64frombits(uint64(math.Float32bits(p[0]))<<32 | uint64(math.Float32bits(p[1])))
}

// pageRankProg computes PageRank with damping 0.85 for a fixed number of
// iterations. Vertex value is the rank; messages are rank contributions.
type pageRankProg struct {
	numVertices int
	iterations  int
}

func (p *pageRankProg) Compute(ctx *Context[float64]) {
	switch {
	case ctx.Superstep == 0:
		*ctx.Value = 1 / float64(p.numVertices)
	case ctx.Superstep <= p.iterations:
		in := ctx.ColumnarInbox()
		var sum float64
		for i := 0; i < in.Len(); i++ {
			sum += payloadF64(in.Payloads[i])
		}
		*ctx.Value = 0.15/float64(p.numVertices) + 0.85*sum
	}
	if ctx.Superstep >= p.iterations {
		ctx.VoteToHalt()
		return
	}
	if d := ctx.OutDegree(); d > 0 {
		var buf [2]float32
		share := f64Payload(&buf, *ctx.Value/float64(d))
		dsts, _ := ctx.OutEdges()
		for _, dst := range dsts {
			ctx.SendColumnar(dst, 0, ctx.ID, 1, share)
		}
		ctx.AddCost(int64(d))
	}
}

// pageRankCombiner merges rank contributions for the same destination.
func pageRankCombiner(_ uint8, acc, pay []float32, accCount, payCount int32) (int32, bool) {
	var buf [2]float32
	copy(acc, f64Payload(&buf, payloadF64(acc)+payloadF64(pay)))
	return accCount + payCount, true
}

// ReferencePageRank computes the same fixed-iteration PageRank on a single
// thread for engine validation.
func ReferencePageRank(topo Topology, iterations int) []float64 {
	n := topo.NumVertices()
	rank := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		next := make([]float64, n)
		for v := range next {
			next[v] = 0.15 / float64(n)
		}
		for v := 0; v < n; v++ {
			d := topo.OutDegree(int32(v))
			if d == 0 {
				continue
			}
			share := 0.85 * rank[v] / float64(d)
			dsts, _ := topo.OutEdges(int32(v))
			for _, u := range dsts {
				next[u] += share
			}
		}
		rank = next
	}
	return rank
}

// ssspProg computes single-source shortest paths over unit-weight edges.
// Vertex value is the tentative distance; messages carry candidate distances
// (small integers, exact in a float32 payload).
type ssspProg struct {
	source int32
}

func (p *ssspProg) Compute(ctx *Context[float64]) {
	if ctx.Superstep == 0 {
		if ctx.ID != p.source {
			*ctx.Value = math.Inf(1)
			ctx.VoteToHalt()
			return
		}
		*ctx.Value = 0
	} else {
		in := ctx.ColumnarInbox()
		best := *ctx.Value
		for i := 0; i < in.Len(); i++ {
			if m := float64(in.Payloads[i][0]); m < best {
				best = m
			}
		}
		if best >= *ctx.Value {
			ctx.VoteToHalt()
			return
		}
		*ctx.Value = best
	}
	dsts, _ := ctx.OutEdges()
	cand := [1]float32{float32(*ctx.Value + 1)}
	for _, dst := range dsts {
		ctx.SendColumnar(dst, 0, ctx.ID, 1, cand[:])
	}
	ctx.AddCost(int64(len(dsts)))
	ctx.VoteToHalt()
}

// ssspCombiner keeps the smallest candidate distance per destination.
func ssspCombiner(_ uint8, acc, pay []float32, accCount, payCount int32) (int32, bool) {
	if pay[0] < acc[0] {
		acc[0] = pay[0]
	}
	return accCount + payCount, true
}

// ReferenceSSSP is a BFS validation oracle for unit-weight SSSP.
func ReferenceSSSP(topo Topology, source int32) []float64 {
	n := topo.NumVertices()
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[source] = 0
	queue := []int32{source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		dsts, _ := topo.OutEdges(v)
		for _, u := range dsts {
			if dist[v]+1 < dist[u] {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}
