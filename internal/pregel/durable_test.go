package pregel

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"inferturbo/internal/checkpoint"
)

// colCodec is the durable codec of the float32-valued test programs.
type colCodec struct{}

func (colCodec) EncodeValues(dst []byte, vals []float32) ([]byte, error) {
	return checkpoint.AppendF32s(dst, vals), nil
}

func (colCodec) DecodeValues(data []byte, into []float32) error {
	r := checkpoint.NewReader(data)
	copy(into, r.F32s())
	return r.Err()
}

// ProgramDiskStater for batchSumProg, so durable checkpoints can carry its
// per-worker slabs.
func (p *batchSumProg) EncodeProgState(dst []byte, snap any) ([]byte, error) {
	slabs := snap.([][]float32)
	b := checkpoint.AppendU64(dst, uint64(len(slabs)))
	for _, s := range slabs {
		b = checkpoint.AppendF32s(b, s)
	}
	return b, nil
}

func (p *batchSumProg) DecodeProgState(data []byte) (any, error) {
	r := checkpoint.NewReader(data)
	n := int(r.U64())
	slabs := make([][]float32, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		slabs = append(slabs, r.F32s())
	}
	return slabs, r.Err()
}

// colConfig builds the standard columnar test config for one plane combo.
func colConfig(parallel, pipelined, batched bool, chunk int) Config {
	return Config{
		NumWorkers:      4,
		Parallel:        parallel,
		MaxSupersteps:   10,
		CheckpointEvery: 2,
		Columnar:        &ColumnarOps{Combine: colSumCombiner},
		Pipelined:       pipelined,
		Batched:         batched,
		ChunkSize:       chunk,
	}
}

func newColProg(batched bool) VertexProgram[float32] {
	if batched {
		return newBatchSumProg(6, 4)
	}
	return newScratchSumProg(6, 4)
}

// TestFaultPlanMatrixByteIdentical drives every fault point through every
// plane combo — including multiple crashes in one run — and requires values
// and message totals bit-identical to the failure-free run.
func TestFaultPlanMatrixByteIdentical(t *testing.T) {
	topo := randomTopology(t, 70, 300, 21)
	planes := []struct {
		name               string
		pipelined, batched bool
		chunk              int
	}{
		{"bsp-pervertex", false, false, 0},
		{"pipelined-pervertex", true, false, 5},
		{"pipelined-batched", true, true, 4},
		{"pipelined-awkward-chunk", true, true, 7}, // chunk doesn't divide partitions: epoch state spans partial FlushChunk extents
	}
	faultSets := map[string][]Fault{
		"before":     {{Superstep: 5, Point: FaultBeforeSuperstep}},
		"mid":        {{Superstep: 5, Point: FaultMidPipeline}},
		"barrier":    {{Superstep: 5, Point: FaultAtBarrier}},
		"checkpoint": {{Superstep: 3, Point: FaultDuringCheckpoint}},
		"multi": {
			{Superstep: 1, Point: FaultMidPipeline},
			{Superstep: 3, Point: FaultDuringCheckpoint},
			{Superstep: 5, Point: FaultAtBarrier},
			{Superstep: 5, Point: FaultBeforeSuperstep}, // fires on the replay pass
		},
	}
	for _, pl := range planes {
		run := func(plan *FaultPlan) ([]float32, int, int64) {
			cfg := colConfig(true, pl.pipelined, pl.batched, pl.chunk)
			cfg.Faults = plan
			eng := NewEngine[float32](topo, newColProg(pl.batched), cfg)
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			var sent int64
			for _, m := range eng.TotalMetrics() {
				sent += m.MessagesSent
			}
			return append([]float32(nil), eng.Values()...), eng.Recoveries(), sent
		}
		clean, rec0, sent0 := run(nil)
		if rec0 != 0 {
			t.Fatalf("%s: clean run recovered", pl.name)
		}
		for name, faults := range faultSets {
			failed, rec, sent := run(&FaultPlan{Crashes: faults})
			if rec != len(faults) {
				t.Fatalf("%s/%s: recoveries = %d, want %d", pl.name, name, rec, len(faults))
			}
			if sent != sent0 {
				t.Fatalf("%s/%s: message totals differ: clean %d vs %d (lost work not discarded)",
					pl.name, name, sent0, sent)
			}
			for v := range clean {
				if clean[v] != failed[v] {
					t.Fatalf("%s/%s: value[%d] differs after recovery: %v vs %v",
						pl.name, name, v, clean[v], failed[v])
				}
			}
		}
	}
}

// TestFaultAtSuperstepZero: a FaultPlan entry can target superstep 0, and
// the step-0 checkpoint taken whenever a plan is armed recovers it.
func TestFaultAtSuperstepZero(t *testing.T) {
	topo := randomTopology(t, 50, 200, 13)
	run := func(plan *FaultPlan) ([]float32, int) {
		cfg := colConfig(false, false, false, 0)
		cfg.Faults = plan
		eng := NewEngine[float32](topo, newScratchSumProg(5, 4), cfg)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), eng.Values()...), eng.Recoveries()
	}
	clean, _ := run(nil)
	for _, p := range []FaultPoint{FaultBeforeSuperstep, FaultMidPipeline, FaultAtBarrier} {
		failed, rec := run(&FaultPlan{Crashes: []Fault{{Superstep: 0, Point: p}}})
		if rec != 1 {
			t.Fatalf("%v at superstep 0: recoveries = %d, want 1", p, rec)
		}
		for v := range clean {
			if clean[v] != failed[v] {
				t.Fatalf("%v at superstep 0: value[%d] differs", p, v)
			}
		}
	}
}

// runDurable executes one engine run against a disk store in dir, optionally
// resuming, with MaxSupersteps capped at maxSteps (simulating a kill by
// stopping the loop early while epochs stay on disk).
func runDurable(t *testing.T, topo Topology, pipelined, batched bool, chunk, maxSteps int, dir string, resume bool) ([]float32, bool) {
	t.Helper()
	cfg := colConfig(true, pipelined, batched, chunk)
	cfg.MaxSupersteps = maxSteps
	eng := NewEngine[float32](topo, newColProg(batched), cfg)
	st, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetSink(st, colCodec{})
	resumed := false
	if resume {
		if resumed, err = eng.Resume(); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return append([]float32(nil), eng.Values()...), resumed
}

// TestDurableResumeBitIdentical: stop a run partway (epochs on disk), build
// a fresh engine over the same store, Resume, finish — values must equal an
// uninterrupted run's, on every plane combo including awkward chunk sizes.
func TestDurableResumeBitIdentical(t *testing.T) {
	topo := randomTopology(t, 70, 300, 21)
	planes := []struct {
		name               string
		pipelined, batched bool
		chunk              int
	}{
		{"bsp-pervertex", false, false, 0},
		{"pipelined-pervertex", true, false, 5},
		{"pipelined-batched", true, true, 4},
		{"pipelined-awkward-chunk", true, true, 7},
	}
	for _, pl := range planes {
		clean, _ := runDurable(t, topo, pl.pipelined, pl.batched, pl.chunk, 10, t.TempDir(), false)
		dir := t.TempDir()
		runDurable(t, topo, pl.pipelined, pl.batched, pl.chunk, 4, dir, false) // "killed" after superstep 3
		resumedVals, resumed := runDurable(t, topo, pl.pipelined, pl.batched, pl.chunk, 10, dir, true)
		if !resumed {
			t.Fatalf("%s: no epoch found to resume from", pl.name)
		}
		for v := range clean {
			if clean[v] != resumedVals[v] {
				t.Fatalf("%s: value[%d] differs after resume: %v vs %v",
					pl.name, v, clean[v], resumedVals[v])
			}
		}
	}
}

// TestResumeFallsBackPastCorruptEpoch: corrupt the newest epoch file; Resume
// must recover from the previous epoch and still finish bit-identically.
func TestResumeFallsBackPastCorruptEpoch(t *testing.T) {
	topo := randomTopology(t, 70, 300, 21)
	clean, _ := runDurable(t, topo, true, true, 4, 10, t.TempDir(), false)
	dir := t.TempDir()
	runDurable(t, topo, true, true, 4, 10, dir, false)
	// Corrupt the newest epoch: flip a byte in the middle.
	names, err := filepath.Glob(filepath.Join(dir, "epoch-*.ckpt"))
	if err != nil || len(names) < 2 {
		t.Fatalf("expected >=2 epochs, got %v (err %v)", names, err)
	}
	latest := names[len(names)-1]
	b, _ := os.ReadFile(latest)
	b[len(b)/2] ^= 0xff
	os.WriteFile(latest, b, 0o644)
	got, resumed := runDurable(t, topo, true, true, 4, 10, dir, true)
	if !resumed {
		t.Fatal("fallback epoch not found")
	}
	for v := range clean {
		if clean[v] != got[v] {
			t.Fatalf("value[%d] differs after torn-epoch fallback: %v vs %v", v, clean[v], got[v])
		}
	}
}

// TestResumeShapeMismatchFailsLoudly: an epoch written by a differently
// configured engine must be rejected, not silently misapplied.
func TestResumeShapeMismatch(t *testing.T) {
	topo := randomTopology(t, 70, 300, 21)
	dir := t.TempDir()
	runDurable(t, topo, false, false, 0, 4, dir, false) // BSP epoch
	cfg := colConfig(true, true, false, 5)              // pipelined engine
	eng := NewEngine[float32](topo, newScratchSumProg(6, 4), cfg)
	st, _ := checkpoint.NewStore(dir)
	eng.SetSink(st, colCodec{})
	if _, err := eng.Resume(); err == nil || !strings.Contains(err.Error(), "does not match engine") {
		t.Fatalf("shape mismatch not rejected: %v", err)
	}
}

// TestResumeRejectsLegacyEpoch: an epoch whose meta segment selects the
// boxed message plane (columnar=false) or carries global aggregators — the
// two version-1 features this engine no longer has — must make Resume
// return an error, never panic, and leave the engine untouched.
func TestResumeRejectsLegacyEpoch(t *testing.T) {
	topo := randomTopology(t, 70, 300, 21)
	src := t.TempDir()
	runDurable(t, topo, false, false, 0, 4, src, false)
	st, err := checkpoint.NewStore(src)
	if err != nil {
		t.Fatal(err)
	}
	step, segs, found, err := st.Load()
	if err != nil || !found {
		t.Fatalf("no epoch to rewrite: found=%v err=%v", found, err)
	}
	// legacy rewrites the meta flags and swaps in the segments the old
	// writer emitted alongside them.
	legacy := func(columnar, agg bool, extra ...checkpoint.Segment) []checkpoint.Segment {
		var out []checkpoint.Segment
		for _, sg := range segs {
			switch sg.Name {
			case segMeta:
				r := checkpoint.NewReader(sg.Data)
				version, flags := r.U32(), r.Bools()
				nw, nvert, inTotal, mailTotal := r.U32(), r.U64(), r.I64(), r.I64()
				if r.Err() != nil || len(flags) != 4 {
					t.Fatal("meta segment unreadable")
				}
				b := checkpoint.AppendU32(nil, version)
				b = checkpoint.AppendBools(b, []bool{columnar, flags[1], flags[2], agg})
				b = checkpoint.AppendU32(b, nw)
				b = checkpoint.AppendU64(b, nvert)
				b = checkpoint.AppendI64(b, inTotal)
				b = checkpoint.AppendI64(b, mailTotal)
				out = append(out, checkpoint.Segment{Name: segMeta, Data: b})
			case segColIn, segColMail:
				if columnar {
					out = append(out, sg)
				}
			default:
				out = append(out, sg)
			}
		}
		return append(out, extra...)
	}
	junk := checkpoint.AppendU64(nil, 3)
	cases := map[string][]checkpoint.Segment{
		"boxed": legacy(false, false,
			checkpoint.Segment{Name: "boxoff", Data: junk},
			checkpoint.Segment{Name: "boxmsgs", Data: junk},
			checkpoint.Segment{Name: "boxmail", Data: junk}),
		"aggregators": legacy(true, true, checkpoint.Segment{
			Name: "agg",
			Data: checkpoint.AppendF32s(checkpoint.AppendString(checkpoint.AppendU64(nil, 1), "shift"), []float32{1}),
		}),
	}
	for name, legacySegs := range cases {
		ls, err := checkpoint.NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := ls.Save(step, legacySegs); err != nil {
			t.Fatal(err)
		}
		eng := NewEngine[float32](topo, newScratchSumProg(6, 4), colConfig(true, false, false, 0))
		eng.SetSink(ls, colCodec{})
		resumed, err := eng.Resume()
		if err == nil || resumed || !strings.Contains(err.Error(), "boxed message plane or global aggregators") {
			t.Fatalf("%s: legacy epoch not rejected: resumed=%v err=%v", name, resumed, err)
		}
		if eng.checkpoint != nil || eng.resumed {
			t.Fatalf("%s: rejected resume modified the engine", name)
		}
	}
}

// TestResumeEmptyStore: nothing on disk is a cold start, not an error.
func TestResumeEmptyStore(t *testing.T) {
	topo := ringTopology(t, 8)
	eng := NewEngine[float32](topo, newScratchSumProg(3, 2), Config{
		NumWorkers: 2, MaxSupersteps: 6, CheckpointEvery: 2,
	})
	st, _ := checkpoint.NewStore(t.TempDir())
	eng.SetSink(st, colCodec{})
	resumed, err := eng.Resume()
	if err != nil || resumed {
		t.Fatalf("empty store: resumed=%v err=%v", resumed, err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointStatsObservability: committed checkpoints, snapshot wall
// time, persisted bytes, and the per-superstep CheckpointNs metric must all
// be visible.
func TestCheckpointStatsObservability(t *testing.T) {
	topo := randomTopology(t, 50, 200, 5)
	cfg := colConfig(false, false, false, 0)
	eng := NewEngine[float32](topo, newScratchSumProg(6, 4), cfg)
	st, _ := checkpoint.NewStore(t.TempDir())
	eng.SetSink(st, colCodec{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	cs := eng.CheckpointStats()
	// 6 rounds + halt step, CheckpointEvery=2: seed at 0 plus steps 2,4,6.
	if cs.Checkpoints < 3 {
		t.Fatalf("checkpoints = %d, want >= 3", cs.Checkpoints)
	}
	if cs.Bytes == 0 || cs.SnapshotNs == 0 {
		t.Fatalf("stats not recorded: %+v", cs)
	}
	var perStep int64
	for _, step := range eng.Metrics() {
		perStep += step[0].CheckpointNs
	}
	if perStep == 0 {
		t.Fatal("StepMetrics.CheckpointNs never charged")
	}
	var total int64
	for _, m := range eng.TotalMetrics() {
		total += m.CheckpointNs
	}
	if total != perStep {
		t.Fatalf("TotalMetrics checkpoint time %d != per-step sum %d", total, perStep)
	}
}

// TestWatchdogDegradesToInlineAssembly: stall the drain goroutines past the
// watchdog; senders must degrade to inline assembly, the run must finish,
// and results must stay bit-identical to the unstalled run.
func TestWatchdogDegradesToInlineAssembly(t *testing.T) {
	topo := randomTopology(t, 70, 300, 21)
	run := func(stall bool) ([]float32, int) {
		cfg := colConfig(true, true, false, 2)
		cfg.PipelineDepth = 1
		cfg.PipelineWatchdog = 2 * time.Millisecond
		eng := NewEngine[float32](topo, newScratchSumProg(6, 4), cfg)
		if stall {
			eng.asmStall = func(int) { time.Sleep(20 * time.Millisecond) }
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), eng.Values()...), eng.WatchdogTrips()
	}
	clean, trips0 := run(false)
	if trips0 != 0 {
		t.Fatalf("unstalled run tripped the watchdog %d times", trips0)
	}
	stalled, trips := run(true)
	if trips == 0 {
		t.Fatal("stalled run never tripped the watchdog")
	}
	for v := range clean {
		if clean[v] != stalled[v] {
			t.Fatalf("value[%d] differs under degraded assembly: %v vs %v", v, clean[v], stalled[v])
		}
	}
}
