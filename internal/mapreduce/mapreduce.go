// Package mapreduce is the columnar shuffle of InferTurbo's MapReduce
// backend: rounds of map → combine → shuffle → reduce over records keyed by
// int32 vertex ids and carrying float32 rows (plus an optional int32 row,
// the out-edge lists the backend ships with every node each round).
//
// Records never exist as objects. Each producer task appends the rows it
// addresses to reducer r into one Extent — parallel key/kind/src/count
// columns plus flat float and int arenas — so the shuffle moves bytes, not
// allocations:
//
//   - Fan-out. A payload sent to many keys on one reducer is copied into
//     that reducer's extent once; every further row aliases the extent
//     (Producer.SendFan), the fan-out rule of the Pregel message plane.
//   - Combiner. Sender-side combining (the paper's partial-gather) folds a
//     message into the first message the producer sent to the same key,
//     found through a dense last-seen index over the key space — no per-key
//     maps, no per-merge allocation.
//   - Grouping. Each reducer groups the extents addressed to it with a
//     counting sort into a key CSR (Grouped.Build). Rows are scattered in
//     globally ascending source order, so a key's rows are ordered by source
//     independent of which task produced them.
//   - Spill. Spill routes a reducer's extents through a bounds-checked,
//     CRC-framed binary columnar file, so its input really round-trips
//     through storage and its byte metrics are the encoded sizes.
package mapreduce

// Extent is the rows one producer task addresses to one reducer in one
// round. Row i is keyed Keys[i] (a key < 0 addresses the reducer itself,
// see Producer.EmitMail), tagged with the caller's Kinds[i], ordered by
// Srcs[i] and carries Counts[i]; its float payload is
// Floats[Offs[i]:Offs[i]+Lens[i]] and its int payload
// Ints[IOffs[i]:IOffs[i]+ILens[i]]. Float extents may be shared by several
// rows (fan-out); int extents never are.
type Extent struct {
	Keys, Kinds, Srcs, Counts []int32
	Offs, Lens                []int32
	IOffs, ILens              []int32
	Floats                    []float32
	Ints                      []int32
}

// Len returns the number of rows.
func (e *Extent) Len() int { return len(e.Keys) }

// Reset truncates the extent for reuse, keeping every backing array.
func (e *Extent) Reset() {
	e.Keys, e.Kinds, e.Srcs, e.Counts = e.Keys[:0], e.Kinds[:0], e.Srcs[:0], e.Counts[:0]
	e.Offs, e.Lens, e.IOffs, e.ILens = e.Offs[:0], e.Lens[:0], e.IOffs[:0], e.ILens[:0]
	e.Floats, e.Ints = e.Floats[:0], e.Ints[:0]
}

// RowFloats returns row i's float payload (a view into the arena).
func (e *Extent) RowFloats(i int) []float32 {
	return e.Floats[e.Offs[i] : e.Offs[i]+e.Lens[i]]
}

// RowInts returns row i's int payload (a view into the arena).
func (e *Extent) RowInts(i int) []int32 {
	return e.Ints[e.IOffs[i] : e.IOffs[i]+e.ILens[i]]
}

// appendRow appends one row header whose payloads already sit in the arenas.
func (e *Extent) appendRow(key, kind, src, count, off, n, ioff, in int32) {
	e.Keys = append(e.Keys, key)
	e.Kinds = append(e.Kinds, kind)
	e.Srcs = append(e.Srcs, src)
	e.Counts = append(e.Counts, count)
	e.Offs = append(e.Offs, off)
	e.Lens = append(e.Lens, n)
	e.IOffs = append(e.IOffs, ioff)
	e.ILens = append(e.ILens, in)
}

// Producer is one task's shuffle writer for one round: it appends the
// records the task emits to the extents of their reducers, pricing every
// emitted record and folding combinable messages in place. A producer is
// owned by one goroutine; its extents are read by their reducers only after
// the round's barrier.
//
// Rows land in each extent in emission order. A producer that emits in
// ascending source order (every task of the inference backend does: map
// tasks walk their inputs in id order, reduce tasks their keys) therefore
// writes extents that are ascending in Srcs — the property Grouped.Build's
// source-order merge relies on. A combined row keeps the source of the row
// that created it.
type Producer struct {
	// Out holds the extents this task writes, one per reducer.
	Out []*Extent
	// Owner maps a key >= 0 to its reducer; shared and read-only.
	Owner []int32
	// Bytes prices an emitted record from its kind and payload lengths,
	// feeding OutBytes.
	Bytes func(kind int32, floats, ints int) int64
	// Combine, when non-nil, folds pay into the accumulator row acc of an
	// earlier message for the same key (Send and SendFan only). Both are
	// the same length.
	Combine func(acc, pay []float32)

	// Records and OutBytes count every emitted record, before combining;
	// CombinedAway counts the messages Combine folded away.
	Records, OutBytes, CombinedAway int64

	// Dense combiner index: last[key] is (row << 1 | private) of the first
	// message this round sent to key, valid iff stamp[key] == gen. private
	// marks a row that owns its payload, so a combine folds into it in
	// place; a fan row's payload is copied to the arena tail on the first
	// merge, leaving the shared copy to the rows that alias it.
	last  []int32
	stamp []uint32
	gen   uint32
	// fan[r] is the arena offset of the current fan's payload in Out[r],
	// or -1.
	fan []int32
}

// NewProducer returns a producer writing to out (one extent per reducer)
// with keys placed by owner.
func NewProducer(out []*Extent, owner []int32, bytes func(kind int32, floats, ints int) int64) *Producer {
	return &Producer{Out: out, Owner: owner, Bytes: bytes, fan: make([]int32, len(out))}
}

// Begin starts a round: extents are truncated, counters cleared and the
// combiner index invalidated (O(1), by generation).
func (p *Producer) Begin() {
	for _, e := range p.Out {
		e.Reset()
	}
	p.Records, p.OutBytes, p.CombinedAway = 0, 0, 0
	p.gen++
}

func (p *Producer) count(kind int32, floats, ints int) {
	p.Records++
	p.OutBytes += p.Bytes(kind, floats, ints)
}

// Emit appends one record for key, copying both payloads. Emitted records
// are never combined.
func (p *Producer) Emit(key, kind, src, count int32, floats []float32, ints []int32) {
	p.count(kind, len(floats), len(ints))
	e := p.Out[p.Owner[key]]
	off, ioff := len(e.Floats), len(e.Ints)
	e.Floats = append(e.Floats, floats...)
	e.Ints = append(e.Ints, ints...)
	e.appendRow(key, kind, src, count, int32(off), int32(len(floats)), int32(ioff), int32(len(ints)))
}

// EmitMail appends one record addressed to reducer r itself rather than to
// a key (key -(r+1)). Reducers see these rows in Grouped's mail, in
// producer order.
func (p *Producer) EmitMail(r int, kind, src int32, floats []float32) {
	p.count(kind, len(floats), 0)
	e := p.Out[r]
	off := len(e.Floats)
	e.Floats = append(e.Floats, floats...)
	e.appendRow(int32(-(r + 1)), kind, src, 0, int32(off), int32(len(floats)), int32(len(e.Ints)), 0)
}

// Send appends one message for key, or folds it into the first message
// this round sent to key when a combiner is set. Rows written by Emit are
// never combine targets.
func (p *Producer) Send(key, kind, src, count int32, floats []float32) {
	p.count(kind, len(floats), 0)
	if p.combine(key, kind, count, floats) {
		return
	}
	e := p.Out[p.Owner[key]]
	off := len(e.Floats)
	e.Floats = append(e.Floats, floats...)
	p.index(key, e, true)
	e.appendRow(key, kind, src, count, int32(off), int32(len(floats)), int32(len(e.Ints)), 0)
}

// SendFan sends one identical message to every key in keys, in order. The
// payload is copied into each reducer's extent at most once and further
// rows alias it — results are identical to len(keys) Send calls; only the
// arena bytes differ.
func (p *Producer) SendFan(keys []int32, kind, src, count int32, floats []float32) {
	for i := range p.fan {
		p.fan[i] = -1
	}
	n := int32(len(floats))
	for _, key := range keys {
		p.count(kind, len(floats), 0)
		if p.combine(key, kind, count, floats) {
			continue
		}
		r := p.Owner[key]
		e := p.Out[r]
		off := p.fan[r]
		if off < 0 {
			off = int32(len(e.Floats))
			e.Floats = append(e.Floats, floats...)
			p.fan[r] = off
		}
		p.index(key, e, false)
		e.appendRow(key, kind, src, count, off, n, int32(len(e.Ints)), 0)
	}
}

// index makes the row about to be appended to e key's combine target for
// this round, unless key already has one. private says whether the row
// owns its payload.
func (p *Producer) index(key int32, e *Extent, private bool) {
	if p.Combine == nil || p.stamp[key] == p.gen {
		return
	}
	row := int32(e.Len()) << 1
	if private {
		row |= 1
	}
	p.last[key], p.stamp[key] = row, p.gen
}

// combine folds a message into key's combine target, reporting whether it
// did. A target of another kind or width declines, leaving the message to
// be appended as its own row.
func (p *Producer) combine(key, kind, count int32, floats []float32) bool {
	if p.Combine == nil {
		return false
	}
	if p.last == nil {
		p.last = make([]int32, len(p.Owner))
		p.stamp = make([]uint32, len(p.Owner))
	}
	if p.stamp[key] != p.gen {
		return false
	}
	e := p.Out[p.Owner[key]]
	i := int(p.last[key] >> 1)
	if e.Kinds[i] != kind || int(e.Lens[i]) != len(floats) {
		return false
	}
	if p.last[key]&1 == 0 {
		// Copy on first merge: the fan payload stays pristine for the rows
		// that alias it.
		off := int32(len(e.Floats))
		e.Floats = append(e.Floats, e.RowFloats(i)...)
		e.Offs[i] = off
		p.last[key] |= 1
	}
	p.Combine(e.RowFloats(i), floats)
	e.Counts[i] += count
	p.CombinedAway++
	return true
}
