package mapreduce

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// A toy shuffle: keys are 0..n-1, reducer key%R owns key, at dense index
// key/R. Sources are the producers' inputs; producer p owns source s iff
// s%P == p and emits its sources in ascending order, the layout the
// inference backend uses.
type toy struct {
	n, P, R int
	owner   []int32
	index   []int32
	exts    [][]*Extent // [producer][reducer]
	prods   []*Producer
}

func newToy(n, producers, reducers int) *toy {
	ty := &toy{n: n, P: producers, R: reducers, owner: make([]int32, n), index: make([]int32, n)}
	for k := range ty.owner {
		ty.owner[k] = int32(k % reducers)
		ty.index[k] = int32(k / reducers)
	}
	ty.exts = make([][]*Extent, producers)
	for p := range ty.exts {
		ty.exts[p] = make([]*Extent, reducers)
		for r := range ty.exts[p] {
			ty.exts[p][r] = &Extent{}
		}
		ty.prods = append(ty.prods, NewProducer(ty.exts[p], ty.owner, flatBytes))
	}
	return ty
}

// flatBytes prices a record as its payload words plus a 16-byte header.
func flatBytes(_ int32, floats, ints int) int64 { return int64(4*floats + 4*ints + 16) }

// keys is reducer r's key count.
func (ty *toy) keys(r int) int { return (ty.n - r + ty.R - 1) / ty.R }

// column returns the extents addressed to reducer r, in producer order.
func (ty *toy) column(r int) []*Extent {
	col := make([]*Extent, ty.P)
	for p := range col {
		col[p] = ty.exts[p][r]
	}
	return col
}

// produce runs emit for every source on its producer, on goroutines when
// parallel.
func (ty *toy) produce(sources int, parallel bool, emit func(p *Producer, src int32)) {
	run := func(p int) {
		ty.prods[p].Begin()
		for s := p; s < sources; s += ty.P {
			emit(ty.prods[p], int32(s))
		}
	}
	if !parallel {
		for p := range ty.prods {
			run(p)
		}
		return
	}
	var wg sync.WaitGroup
	for p := range ty.prods {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(p)
		}()
	}
	wg.Wait()
}

// group builds every reducer's Grouped.
func (ty *toy) group(t *testing.T) []*Grouped {
	t.Helper()
	out := make([]*Grouped, ty.R)
	for r := range out {
		out[r] = &Grouped{}
		if err := out[r].Build(ty.column(r), ty.index, ty.keys(r)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// keyRows flattens every key's grouped rows to "src:value" strings, keyed
// by the global key.
func (ty *toy) keyRows(groups []*Grouped) map[int32][]string {
	out := map[int32][]string{}
	for _, g := range groups {
		for li := 0; li < g.Keys(); li++ {
			for s := g.Off[li]; s < g.Off[li+1]; s++ {
				row := g.Slot(int(s))
				out[row.Key] = append(out[row.Key], fmt.Sprintf("%d:%v/%d", row.Src, row.Floats, row.Count))
			}
		}
	}
	return out
}

// fanOut sends source s's payload {s} to keys s+1 .. s+4 (mod n), plus a
// second, edge-specific message to key s%n.
func fanOut(n int) func(p *Producer, src int32) {
	return func(p *Producer, src int32) {
		keys := make([]int32, 4)
		for i := range keys {
			keys[i] = (src + int32(i) + 1) % int32(n)
		}
		p.SendFan(keys, 1, src, 1, []float32{float32(src)})
		p.Send(src%int32(n), 1, src, 1, []float32{float32(-src)})
	}
}

func TestGroupAscendingSourceOrder(t *testing.T) {
	const n = 23
	var want map[int32][]string
	for _, producers := range []int{1, 3, 5} {
		for _, reducers := range []int{1, 4} {
			ty := newToy(n, producers, reducers)
			ty.produce(60, false, fanOut(n))
			got := ty.keyRows(ty.group(t))
			for key, rows := range got {
				var prev int
				for i, r := range rows {
					var src int
					fmt.Sscanf(r, "%d:", &src)
					if i > 0 && src < prev {
						t.Fatalf("P=%d R=%d key %d rows out of source order: %v", producers, reducers, key, rows)
					}
					prev = src
				}
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("P=%d R=%d grouping depends on the task counts", producers, reducers)
			}
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() map[int32][]string {
		ty := newToy(31, 4, 3)
		ty.prods[0].Combine = func(acc, pay []float32) { acc[0] += pay[0] }
		ty.produce(100, true, fanOut(31))
		return ty.keyRows(ty.group(t))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("grouped rows differ between identical runs")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	collect := func(parallel bool) map[int32][]string {
		ty := newToy(40, 5, 3)
		ty.produce(200, parallel, fanOut(40))
		return ty.keyRows(ty.group(t))
	}
	if !reflect.DeepEqual(collect(false), collect(true)) {
		t.Fatal("parallel producers diverge from sequential ones")
	}
}

func TestCombinerReducesShuffleRecords(t *testing.T) {
	// Fifty messages from one producer for one key collapse to one row.
	ty := newToy(2, 1, 2)
	p := ty.prods[0]
	p.Combine = func(acc, pay []float32) { acc[0] += pay[0] }
	ty.produce(50, false, func(p *Producer, src int32) { p.Send(0, 1, src, 1, []float32{1}) })
	if p.Records != 50 || p.CombinedAway != 49 || p.OutBytes != 50*20 {
		t.Fatalf("records %d, combined away %d, bytes %d; want 50, 49, 1000", p.Records, p.CombinedAway, p.OutBytes)
	}
	g := ty.group(t)
	if g[0].Records() != 1 || g[1].Records() != 0 {
		t.Fatalf("reducer records = %d, %d; want 1, 0", g[0].Records(), g[1].Records())
	}
	row := g[0].Slot(0)
	if row.Floats[0] != 50 || row.Count != 50 || row.Src != 0 {
		t.Fatalf("combined row = %+v, want value 50, count 50, creation src 0", row)
	}
	// A new round starts a new combine generation.
	p.Begin()
	p.Send(0, 1, 7, 1, []float32{1})
	if ty.exts[0][0].Len() != 1 || ty.exts[0][0].RowFloats(0)[0] != 1 {
		t.Fatal("combine index leaked across rounds")
	}
}

func TestCombinerCounts(t *testing.T) {
	// A fan stores its payload once per reducer; a merge into a fan row
	// copies it first, so the other rows aliasing it keep the pristine
	// value. Emitted rows and rows of another kind are never merge targets.
	ty := newToy(4, 1, 1)
	p := ty.prods[0]
	p.Combine = func(acc, pay []float32) { acc[0] += pay[0] }
	p.Begin()
	p.Emit(0, 7, 0, 0, []float32{100}, []int32{1, 2})
	p.SendFan([]int32{0, 1, 2}, 1, 0, 1, []float32{5})
	p.Send(1, 1, 1, 2, []float32{3})
	p.Send(1, 1, 2, 1, []float32{4})
	p.Send(3, 2, 3, 1, []float32{9})
	p.Send(3, 1, 3, 1, []float32{9})
	e := ty.exts[0][0]
	if e.Len() != 6 || p.CombinedAway != 2 || p.Records != 8 {
		t.Fatalf("%d rows, %d combined away, %d records; want 6, 2, 8", e.Len(), p.CombinedAway, p.Records)
	}
	want := [][]float32{{100}, {5}, {12}, {5}, {9}, {9}}
	for i, w := range want {
		if !reflect.DeepEqual(e.RowFloats(i), w) {
			t.Fatalf("row %d = %v, want %v", i, e.RowFloats(i), w)
		}
	}
	if e.Counts[2] != 4 || e.Srcs[2] != 0 || !reflect.DeepEqual(e.RowInts(0), []int32{1, 2}) {
		t.Fatalf("merged row count %d src %d, ints %v", e.Counts[2], e.Srcs[2], e.RowInts(0))
	}
	// One fan payload, one materialized accumulator, three other payloads.
	if len(e.Floats) != 5 {
		t.Fatalf("arena holds %d floats, want 5", len(e.Floats))
	}
}

func TestPartitionCoversAllReducers(t *testing.T) {
	ty := newToy(100, 2, 4)
	ty.produce(100, false, func(p *Producer, src int32) {
		p.Emit(src, 0, src, 0, nil, nil)
		if src < 4 {
			p.EmitMail(int(src), 3, src, []float32{1})
		}
	})
	for r, g := range ty.group(t) {
		if g.Records() != 25+1 || g.Mails() != 1 || g.Mail(0).Src != int32(r) {
			t.Fatalf("reducer %d got %d records, %d mails", r, g.Records(), g.Mails())
		}
		for s := 0; s < int(g.Off[g.Keys()]); s++ {
			if key := g.Slot(s).Key; ty.owner[key] != int32(r) {
				t.Fatalf("key %d routed to reducer %d", key, r)
			}
		}
	}
}

func TestKeysProcessedMetric(t *testing.T) {
	ty := newToy(10, 1, 3)
	ty.produce(3, false, func(p *Producer, src int32) {
		p.Emit(src, 0, src, 0, nil, nil)
		p.Emit(src, 0, src, 0, nil, nil)
	})
	g := ty.group(t)
	keys, records, nonEmpty := 0, 0, 0
	for _, x := range g {
		keys += x.Keys()
		records += x.Records()
		for li := 0; li < x.Keys(); li++ {
			if x.Off[li+1] > x.Off[li] {
				nonEmpty++
			}
		}
	}
	if keys != 10 || records != 6 || nonEmpty != 3 {
		t.Fatalf("keys %d, records %d, keys with rows %d; want 10, 6, 3", keys, records, nonEmpty)
	}
}

func TestChainedRounds(t *testing.T) {
	// Round 1 sends every source's id to its successor; round 2's producers
	// are round 1's reducers, re-emitting each key's total to key 0.
	const n = 12
	r1 := newToy(n, 3, 3)
	r1.produce(n, false, func(p *Producer, src int32) {
		p.Send((src+1)%n, 1, src, 1, []float32{float32(src)})
	})
	groups := r1.group(t)
	r2 := newToy(n, 3, 1)
	for r, g := range groups {
		p := r2.prods[r]
		p.Combine = func(acc, pay []float32) { acc[0] += pay[0] }
		p.Begin()
		for li := 0; li < g.Keys(); li++ {
			key := int32(li*3 + r)
			var sum float32
			for s := g.Off[li]; s < g.Off[li+1]; s++ {
				sum += g.Slot(int(s)).Floats[0]
			}
			p.Send(0, 1, key, 1, []float32{sum})
		}
	}
	final := r2.group(t)[0]
	if final.Records() != 3 {
		t.Fatalf("round 2 input = %d rows, want one per producer", final.Records())
	}
	var total float32
	var count int32
	for s := 0; s < final.Records(); s++ {
		total += final.Slot(s).Floats[0]
		count += final.Slot(s).Count
	}
	if total != n*(n-1)/2 || count != n {
		t.Fatalf("chained total %v over %d keys, want %d over %d", total, count, n*(n-1)/2, n)
	}
}

func TestEmptyInputRound(t *testing.T) {
	ty := newToy(5, 2, 2)
	ty.produce(0, false, nil)
	for r, g := range ty.group(t) {
		if g.Records() != 0 || g.Mails() != 0 || g.Keys() != ty.keys(r) || g.Off[g.Keys()] != 0 {
			t.Fatalf("reducer %d: empty input grouped to %d records", r, g.Records())
		}
		size, err := Spill(t.TempDir(), ty.column(r))
		if err != nil {
			t.Fatal(err)
		}
		// Magic, extent count, two empty extent headers, checksum.
		if size != 8+4+2*12+4 {
			t.Fatalf("empty spill = %d bytes", size)
		}
	}
}

func TestBuildRejectsMisroutedKeys(t *testing.T) {
	ty := newToy(6, 1, 2)
	ty.produce(1, false, func(p *Producer, src int32) { p.Emit(4, 0, src, 0, nil, nil) })
	var g Grouped
	// Key 4 is reducer 0's third key: a two-key index is the wrong reducer.
	if err := g.Build(ty.column(0), ty.index, 2); err == nil {
		t.Fatal("a key outside the reducer's index must be an error")
	}
	ty.exts[0][0].Offs[0] = 99
	if err := g.Build(ty.column(0), ty.index, 3); err == nil {
		t.Fatal("a payload extent outside the arena must be an error")
	}
}

// spillFixture is a shuffle with every row shape: fan aliases, combined
// rows, int payloads and mail.
func spillFixture() *toy {
	ty := newToy(17, 2, 3)
	ty.prods[1].Combine = func(acc, pay []float32) { acc[0] += pay[0] }
	ty.produce(30, false, func(p *Producer, src int32) {
		fanOut(17)(p, src)
		p.Emit(src%17, 2, src, 3, []float32{0.5, -1}, []int32{src, 2 * src})
		p.EmitMail(int(src)%3, 3, src, []float32{float32(src)})
	})
	return ty
}

func encode(t *testing.T, exts []*Extent) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteExtents(&buf, exts)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteExtents reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestSpillRoundTripByteForByte(t *testing.T) {
	ty := spillFixture()
	for r := 0; r < ty.R; r++ {
		orig := ty.column(r)
		a := encode(t, orig)
		back := make([]*Extent, len(orig))
		for i := range back {
			back[i] = &Extent{}
		}
		if err := ReadExtents(bytes.NewReader(a), int64(len(a)), back); err != nil {
			t.Fatal(err)
		}
		for i := range orig {
			if !reflect.DeepEqual(back[i], orig[i]) {
				t.Fatalf("reducer %d extent %d changed in the round trip", r, i)
			}
		}
		if b := encode(t, back); !bytes.Equal(a, b) {
			t.Fatalf("reducer %d: re-encoded spill differs", r)
		}
		// Spill itself round-trips in place.
		want := ty.keyRows(ty.group(t))
		if _, err := Spill(t.TempDir(), orig); err != nil {
			t.Fatal(err)
		}
		if got := ty.keyRows(ty.group(t)); !reflect.DeepEqual(got, want) {
			t.Fatalf("reducer %d: spilled input groups differently", r)
		}
	}
}

func TestSpillRejectsTruncatedOrCorrupt(t *testing.T) {
	ty := spillFixture()
	good := encode(t, ty.column(1))
	read := func(b []byte) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = nil
				t.Fatalf("reader panicked: %v", p)
			}
		}()
		dst := []*Extent{{}, {}}
		return ReadExtents(bytes.NewReader(b), int64(len(b)), dst)
	}
	if err := read(good); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(good); n++ {
		if read(good[:n]) == nil {
			t.Fatalf("file truncated to %d of %d bytes read without error", n, len(good))
		}
	}
	for i := range good {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			bad := append([]byte(nil), good...)
			bad[i] ^= flip
			if read(bad) == nil {
				t.Fatalf("byte %d ^ %#x read without error", i, flip)
			}
		}
	}
	if read(append(append([]byte(nil), good...), 0)) == nil {
		t.Fatal("trailing bytes read without error")
	}
	// A huge declared count fails before anything is allocated.
	huge := append([]byte(nil), good...)
	copy(huge[12:], []byte{0xff, 0xff, 0xff, 0x7f})
	if read(huge) == nil {
		t.Fatal("oversized row count read without error")
	}
}

func TestSpillMetricsUseRealBytes(t *testing.T) {
	ty := spillFixture()
	col := ty.column(2)
	want := encode(t, col)
	path := filepath.Join(t.TempDir(), "extents.col")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := WriteExtents(f, col)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	size, err := Spill(dir, col)
	if err != nil {
		t.Fatal(err)
	}
	if size != info.Size() || n != info.Size() || size != int64(len(want)) {
		t.Fatalf("spill reported %d bytes, file holds %d (encoded %d)", size, info.Size(), len(want))
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("spill left %d files behind", len(left))
	}
}
