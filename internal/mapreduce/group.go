package mapreduce

import (
	"fmt"
	"math"
)

// Row is one grouped record: header fields plus views of its payloads,
// valid until the extents it came from are reset.
type Row struct {
	Key, Kind, Src, Count int32
	Floats                []float32
	Ints                  []int32
}

// Grouped is one reducer's round input after the shuffle: every row
// addressed to a key, grouped into a CSR over the reducer's dense key index
// (local key li owns slots Off[li]:Off[li+1]), plus the rows addressed to
// the reducer itself (mail). Slots reference rows in place — no payload is
// copied. Buffers are reused across Build calls.
type Grouped struct {
	// Off is the key CSR, len keys+1.
	Off []int32
	// slotExt/slotRow locate slot s's row: extent index and row within it.
	slotExt, slotRow []int32
	// mailExt/mailRow locate the mail rows, in producer-major order.
	mailExt, mailRow []int32
	exts             []*Extent
	// Source-order merge scratch: per-extent cursor and head source.
	cur   []int
	heads []int32
}

// Records returns the number of rows grouped, mail included.
func (g *Grouped) Records() int { return len(g.slotExt) + len(g.mailExt) }

// Keys returns the number of keys in the CSR.
func (g *Grouped) Keys() int { return len(g.Off) - 1 }

// Slot returns the row in CSR slot s.
func (g *Grouped) Slot(s int) Row { return g.row(g.slotExt[s], g.slotRow[s]) }

// Mails returns the number of mail rows.
func (g *Grouped) Mails() int { return len(g.mailExt) }

// Mail returns mail row i.
func (g *Grouped) Mail(i int) Row { return g.row(g.mailExt[i], g.mailRow[i]) }

func (g *Grouped) row(x, i int32) Row {
	e := g.exts[x]
	return Row{
		Key: e.Keys[i], Kind: e.Kinds[i], Src: e.Srcs[i], Count: e.Counts[i],
		Floats: e.RowFloats(int(i)), Ints: e.RowInts(int(i)),
	}
}

// mergeDone is the exhausted-extent sentinel of the source-order merge:
// above every source, so a drained extent never wins the head scan.
const mergeDone = int32(math.MaxInt32)

// Build groups exts — the extents every producer addressed to this
// reducer, in producer order — into the key CSR. index maps a key >= 0 to
// its dense position in [0, keys); a key outside index, or mapped outside
// [0, keys), is an error (the producer routed a record to the wrong
// reducer), as is a row whose payload extents fall outside its arenas.
//
// The scatter visits rows in globally ascending source order: each extent
// is consumed as a run up to the next-lowest head source among the other
// extents. When every extent is ascending in Srcs and no source appears in
// two extents — one producer per source, the inference backend's layout —
// each key's rows come out in ascending source order whatever the producer
// count or key placement, and rows of one source keep their emission
// order. Mail rows keep producer-major order.
func (g *Grouped) Build(exts []*Extent, index []int32, keys int) error {
	g.exts = exts
	g.Off = resizeInt32(g.Off, keys+1)
	clear(g.Off)
	mails := 0
	for _, e := range exts {
		if err := e.check(); err != nil {
			return err
		}
		for _, key := range e.Keys {
			if key < 0 {
				mails++
				continue
			}
			if int(key) >= len(index) || index[key] < 0 || int(index[key]) >= keys {
				return fmt.Errorf("mapreduce: key %d is not a key of this reducer", key)
			}
			g.Off[index[key]+1]++
		}
	}
	for i := 1; i <= keys; i++ {
		g.Off[i] += g.Off[i-1]
	}
	total := int(g.Off[keys])
	g.slotExt = resizeInt32(g.slotExt, total)
	g.slotRow = resizeInt32(g.slotRow, total)
	g.mailExt = resizeInt32(g.mailExt, mails)[:0]
	g.mailRow = resizeInt32(g.mailRow, mails)[:0]
	for x, e := range exts {
		for i, key := range e.Keys {
			if key < 0 {
				g.mailExt = append(g.mailExt, int32(x))
				g.mailRow = append(g.mailRow, int32(i))
			}
		}
	}
	// next[li] is key li's scatter cursor. The tail of Off serves as it:
	// shifted up one place, Off[li+1] holds the start of key li's range.
	next := g.Off[1:]
	copy(next, g.Off[:keys])
	n := len(exts)
	if cap(g.cur) < n {
		g.cur, g.heads = make([]int, n), make([]int32, n)
	}
	cur, heads := g.cur[:n], g.heads[:n]
	for x, e := range exts {
		cur[x] = skipMail(e.Keys, 0)
		heads[x] = e.head(cur[x])
	}
	for {
		best, second := mergeBest(heads)
		if best < 0 {
			break
		}
		e := exts[best]
		i := cur[best]
		for ; i < len(e.Keys); i++ {
			key := e.Keys[i]
			if key < 0 {
				continue
			}
			if e.Srcs[i] > second {
				break
			}
			li := index[key]
			s := next[li]
			next[li]++
			g.slotExt[s], g.slotRow[s] = int32(best), int32(i)
		}
		cur[best] = skipMail(e.Keys, i)
		heads[best] = e.head(cur[best])
	}
	// The scatter advanced each next[li] = Off[li+1] from the start of key
	// li's range to its end, which leaves Off the CSR again.
	return nil
}

// head returns the source of row i, or mergeDone past the end.
func (e *Extent) head(i int) int32 {
	if i < len(e.Srcs) {
		return e.Srcs[i]
	}
	return mergeDone
}

// check validates the extent's columns and payload bounds, so a corrupt
// extent (from a damaged spill file, say) fails with an error instead of a
// slice panic in a reducer.
func (e *Extent) check() error {
	n := len(e.Keys)
	if len(e.Kinds) != n || len(e.Srcs) != n || len(e.Counts) != n || len(e.Offs) != n ||
		len(e.Lens) != n || len(e.IOffs) != n || len(e.ILens) != n {
		return fmt.Errorf("mapreduce: extent columns disagree on the row count")
	}
	for i := 0; i < n; i++ {
		if e.Offs[i] < 0 || e.Lens[i] < 0 || int64(e.Offs[i])+int64(e.Lens[i]) > int64(len(e.Floats)) {
			return fmt.Errorf("mapreduce: row %d float extent [%d,+%d) outside an arena of %d", i, e.Offs[i], e.Lens[i], len(e.Floats))
		}
		if e.IOffs[i] < 0 || e.ILens[i] < 0 || int64(e.IOffs[i])+int64(e.ILens[i]) > int64(len(e.Ints)) {
			return fmt.Errorf("mapreduce: row %d int extent [%d,+%d) outside an arena of %d", i, e.IOffs[i], e.ILens[i], len(e.Ints))
		}
	}
	return nil
}

// mergeBest scans the head sources and returns the winning extent (lowest
// head, ties to the lowest index) and the runner-up head — the bound the
// winner's run may drain up to. best is -1 once every extent is drained.
func mergeBest(heads []int32) (best int, second int32) {
	best, second = -1, mergeDone
	bestSrc := mergeDone
	for x, h := range heads {
		if h < bestSrc {
			best, second, bestSrc = x, bestSrc, h
		} else if h < second {
			second = h
		}
	}
	return best, second
}

// skipMail advances i past mail rows.
func skipMail(keys []int32, i int) int {
	for i < len(keys) && keys[i] < 0 {
		i++
	}
	return i
}

func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
