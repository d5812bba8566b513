package pregel

// The message plane: instead of boxing every message as a value with its own
// heap-allocated payload, programs append payloads into flat []float32
// arenas alongside parallel dst/kind/src/count columns. One
// send buffer exists per (sender, receiver) worker pair and recycles across
// supersteps through a free list, so a steady-state superstep performs no
// per-message allocation: the cost of messaging scales with the bytes moved,
// not the number of messages created.
//
// Delivery is zero-copy. The barrier's counting sort builds per-receiver
// CSR-shaped inboxes whose payload entries are subslices of the sender
// arenas — payload floats are written exactly once (at send) and read in
// place (at gather). The arenas backing an inbox stay alive for one extra
// superstep (the "live" generation) and only then return to the free list.
//
// Checkpoints are the one place this aliasing must be cut: a snapshot
// deep-copies every payload out of the live arenas into its own flat arena,
// because by the time a recovery replays, the original arenas have been
// recycled and overwritten. Restores may alias the snapshot arena in turn —
// snapshots are immutable after capture; every writer (send append, combine,
// recycle) targets engine-owned buffers only.

// ColumnarOps tunes the message plane (Config.Columnar; nil selects the
// zero value). Programs send with Context.SendColumnar / SendColumnarFan /
// SendColumnarToWorker and read with Context.ColumnarInbox /
// ColumnarMailbox (or BatchContext.InboxCSR on the batched plane).
type ColumnarOps struct {
	// Combine merges an in-flight payload into the arena row acc of an
	// earlier message for the same destination, in place — Pregel's
	// sender-side combining without a per-merge allocation. It is only
	// invoked when the two messages carry the same kind byte and payload
	// length; acc and pay are both payLen long. Returning the merged
	// count and true commits the merge; returning false declines it, leaving
	// both messages to be delivered individually (later messages for the
	// same destination still attempt to merge with the first one). nil
	// disables combining.
	Combine func(kind uint8, acc, pay []float32, accCount, payCount int32) (int32, bool)
	// Bytes estimates the wire size of a message from its kind byte and
	// payload length, feeding the IO accounting. Defaults to 4*payloadLen+16
	// when nil.
	Bytes func(kind uint8, payloadLen int) int
	// ReserveMsgs / ReserveFloats pre-size each sender→receiver send
	// buffer's first generation (header rows / arena values). Later
	// generations size themselves from the previous generation's extents;
	// the first two start cold, and without a hint their columns grow by
	// log-many append doublings per buffer. Programs that can estimate
	// per-buffer volume (the GNN driver: edges / workers², at the model's
	// widest payload) set these; 0 leaves buffers growing on demand.
	ReserveMsgs   int
	ReserveFloats int
}

// Batch is a zero-copy columnar view of the messages addressed to one
// vertex (Context.ColumnarInbox) or one worker (Context.ColumnarMailbox).
// All columns share indexing; Payloads entries are views into message
// arenas, valid only for the duration of the current superstep and never to
// be mutated.
type Batch struct {
	Kinds    []uint8
	Srcs     []int32
	Counts   []int32
	Payloads [][]float32
}

// Len returns the number of messages in the batch.
func (b Batch) Len() int { return len(b.Kinds) }

// colBuf is one sender→receiver send buffer: message headers in parallel
// columns, payloads packed back-to-back in arena. offs[i] : offs[i]+lens[i]
// is message i's payload extent; appends grow the arena, in-place combines
// rewrite an existing extent, so offsets stay valid for the buffer's whole
// lifetime.
type colBuf struct {
	dsts   []int32
	kinds  []uint8
	srcs   []int32
	counts []int32
	offs   []int
	lens   []int32
	arena  []float32
	// shared[i] marks row i's extent as potentially aliased by other rows
	// (fan-out sends); a combine into a shared row materializes a private
	// accumulator first. Rows appended by add are exclusive.
	shared []bool
}

// reset truncates the buffer for reuse, keeping every backing array.
func (b *colBuf) reset() {
	b.dsts = b.dsts[:0]
	b.kinds = b.kinds[:0]
	b.srcs = b.srcs[:0]
	b.counts = b.counts[:0]
	b.offs = b.offs[:0]
	b.lens = b.lens[:0]
	b.arena = b.arena[:0]
	b.shared = b.shared[:0]
}

// add appends one message, copying the payload into the arena.
func (b *colBuf) add(dst int32, kind uint8, src, count int32, pay []float32) {
	b.dsts = append(b.dsts, dst)
	b.kinds = append(b.kinds, kind)
	b.srcs = append(b.srcs, src)
	b.counts = append(b.counts, count)
	b.offs = append(b.offs, len(b.arena))
	b.lens = append(b.lens, int32(len(pay)))
	b.arena = append(b.arena, pay...)
	b.shared = append(b.shared, false)
}

// addAlias appends one message whose payload is an existing arena extent
// [off, off+length): the fan-out path stores a broadcast-identical payload
// once per buffer and points every further header at it, so a hub vertex's
// out-edges cost one payload copy per destination worker instead of one per
// edge. Extents are addressed by index, so arena growth never invalidates an
// alias.
func (b *colBuf) addAlias(dst int32, kind uint8, src, count int32, off int, length int32) {
	b.dsts = append(b.dsts, dst)
	b.kinds = append(b.kinds, kind)
	b.srcs = append(b.srcs, src)
	b.counts = append(b.counts, count)
	b.offs = append(b.offs, off)
	b.lens = append(b.lens, length)
	b.shared = append(b.shared, true)
}

// payload returns message i's arena extent.
func (b *colBuf) payload(i int) []float32 {
	return b.arena[b.offs[i] : b.offs[i]+int(b.lens[i])]
}

// mergeTarget returns the accumulator extent for an in-place combine into
// row i. Exclusive rows (appended by add outside a fan) combine in place,
// the PR 2 hot path. Shared rows — a fan extent other rows may alias —
// first materialize a private copy at the arena tail, so the combine cannot
// corrupt sibling messages or the pristine payload later aliases read; the
// materialized row is exclusive from then on. The merged values are those
// of an in-place fold: it runs on an identical copy of the same accumulator.
func (b *colBuf) mergeTarget(i int32) []float32 {
	if !b.shared[i] {
		return b.payload(int(i))
	}
	n := int(b.lens[i])
	off := len(b.arena)
	b.arena = append(b.arena, b.arena[b.offs[i]:b.offs[i]+n]...)
	b.offs[i] = off
	b.shared[i] = false
	return b.arena[off : off+n]
}

// reserve grows the buffer's backing arrays to hold at least msgs headers
// and floats payload values, replacing log-many append doublings with one
// allocation per column when the expected volume is known up front.
func (b *colBuf) reserve(msgs, floats int) {
	if cap(b.dsts) < msgs {
		b.dsts = make([]int32, 0, msgs)
		b.kinds = make([]uint8, 0, msgs)
		b.srcs = make([]int32, 0, msgs)
		b.counts = make([]int32, 0, msgs)
		b.offs = make([]int, 0, msgs)
		b.lens = make([]int32, 0, msgs)
		b.shared = make([]bool, 0, msgs)
	}
	if cap(b.arena) < floats {
		b.arena = make([]float32, 0, floats)
	}
}

// bufPool is a tensor.Pool-style free list of send buffers. Buffers retire
// here once the inbox views into their arenas have been consumed (one
// superstep after they were filled) and are handed back out truncated, so
// arena capacity is reused across supersteps instead of reallocated.
type bufPool struct {
	free []*colBuf
}

// get returns a truncated buffer, pre-reserved to the extents of hint (the
// previous generation's buffer for the same sender→receiver pair, whose
// volume the new superstep will roughly repeat). hint may be nil.
func (p *bufPool) get(hint *colBuf) *colBuf {
	var b *colBuf
	if n := len(p.free); n > 0 {
		b = p.free[n-1]
		p.free = p.free[:n-1]
		b.reset()
	} else {
		b = &colBuf{}
	}
	if hint != nil {
		b.reserve(len(hint.dsts), len(hint.arena))
	}
	return b
}

func (p *bufPool) put(b *colBuf) {
	if b != nil {
		p.free = append(p.free, b)
	}
}

// colCols holds flat message columns for a receiver-side inbox or worker
// mailbox. Backing arrays are reused across supersteps (grow-only); pays
// entries are zero-copy views into sender arenas.
type colCols struct {
	kinds  []uint8
	srcs   []int32
	counts []int32
	pays   [][]float32
}

// resize sets the column length to n, reusing capacity.
func (c *colCols) resize(n int) {
	if cap(c.kinds) < n {
		c.kinds = make([]uint8, n)
		c.srcs = make([]int32, n)
		c.counts = make([]int32, n)
		c.pays = make([][]float32, n)
		return
	}
	c.kinds = c.kinds[:n]
	c.srcs = c.srcs[:n]
	c.counts = c.counts[:n]
	c.pays = c.pays[:n]
}

// set writes message fields at slot i.
func (c *colCols) set(i int, kind uint8, src, count int32, pay []float32) {
	c.kinds[i] = kind
	c.srcs[i] = src
	c.counts[i] = count
	c.pays[i] = pay
}

// batch returns the [lo, hi) view.
func (c *colCols) batch(lo, hi int32) Batch {
	return Batch{
		Kinds:    c.kinds[lo:hi],
		Srcs:     c.srcs[lo:hi],
		Counts:   c.counts[lo:hi],
		Payloads: c.pays[lo:hi],
	}
}

// colInbox is one receiver's CSR inbox for a superstep: off is indexed by
// the receiver's dense local vertex index (graph.Partitioner.LocalIndex),
// so vertex v's messages are cols[off[li] : off[li+1]]. next is the scatter
// cursor of the counting sort's second pass.
type colInbox struct {
	off  []int32 // len ownedCount+1
	next []int32 // len ownedCount
	cols colCols
}

// colSnap is the checkpointed form of a colCols (+ optional CSR offsets):
// headers copied, payloads flattened into an owned arena. Immutable after
// capture.
type colSnap struct {
	off    []int32 // nil for worker mail
	kinds  []uint8
	srcs   []int32
	counts []int32
	payOff []int // len msgs+1; payload i is arena[payOff[i]:payOff[i+1]]
	arena  []float32
}

// snapColsInto deep-copies columns into a snapshot slot, cutting every arena
// alias. It reuses the slot's slice capacity, so a recycled snapshot (see
// takeCheckpoint) captures without reallocating.
func snapColsInto(s *colSnap, off []int32, c *colCols) {
	s.off = append(s.off[:0], off...)
	s.kinds = append(s.kinds[:0], c.kinds...)
	s.srcs = append(s.srcs[:0], c.srcs...)
	s.counts = append(s.counts[:0], c.counts...)
	if cap(s.payOff) < len(c.pays)+1 {
		s.payOff = make([]int, len(c.pays)+1)
	} else {
		s.payOff = s.payOff[:len(c.pays)+1]
	}
	total := 0
	for _, p := range c.pays {
		total += len(p)
	}
	if cap(s.arena) < total {
		s.arena = make([]float32, 0, total) // one exact allocation, no append doubling
	} else {
		s.arena = s.arena[:0]
	}
	for i, p := range c.pays {
		s.payOff[i] = len(s.arena)
		s.arena = append(s.arena, p...)
	}
	s.payOff[len(c.pays)] = len(s.arena)
}

// restoreCols rebuilds live columns from a snapshot. Headers are copied
// (the barrier overwrites the live arrays in place); payload views alias
// the snapshot's arena, which is safe because snapshots are never written
// after capture and every future send/recycle targets engine-owned buffers.
func restoreCols(off []int32, c *colCols, s colSnap) {
	copy(off, s.off)
	n := len(s.kinds)
	c.resize(n)
	copy(c.kinds, s.kinds)
	copy(c.srcs, s.srcs)
	copy(c.counts, s.counts)
	for i := 0; i < n; i++ {
		c.pays[i] = s.arena[s.payOff[i]:s.payOff[i+1]]
	}
}
