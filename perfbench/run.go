package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/inference"
	"inferturbo/internal/serve"
)

const (
	rungDur      = time.Second            // one capacity rung per round
	minMixedTime = 500 * time.Millisecond // per round
)

// run is one benchmark invocation: one workload, one seed.
type run struct {
	p      profile
	seed   int64
	budget time.Duration
	tr     *tracer // nil unless --trace 1
	work   string  // scratch directory inside the checkout

	in         *inputs
	bg, sg     *graph.Graph // batch and serving graphs, decoded at set-up
	model      *gas.Model
	sv         *server
	sessionDir string

	attempted atomic.Int64
	acked     atomic.Int64
	failMu    sync.Mutex
	failed    int64
	failures  []string
	notes     []string // observations that are not failures

	setupS            []float64
	pregel, mapreduce []*passRecord
	pgTime, mrTime    time.Duration // timed pass time per backend so far
	pg0, mr0          *inference.Result
	mixedLat          map[eventKind][]float64
	mixedOut          []outcome // every mixed-phase request, for the generator's lateness
	gcPauses          pauseHist // GC pauses over the mixed phases

	refreshMu sync.Mutex
	lastEpoch int64
	// persistedAtTrigger is the server's persist count read just before the
	// last mixed-phase refresh trigger was sent.
	persistedAtTrigger atomic.Int64
	mixedRefreshMs     []float64
	// The closed-loop write groups: each mutate's acknowledgement time and
	// each refresh's wall time, Store stats and kind.
	mutateMs     []float64
	refreshMs    []float64
	deltaActive  []float64
	refreshKinds []string

	stairRate      float64 // the next capacity rung's rate
	rungs          []rung
	restart        []float64
	replayMs       []float64
	persistMs      []float64
	walRecordBytes []float64
	// walPayloads are the WAL records the server wrote, read back from the
	// session directory before each warm restart, in sequence order.
	walPayloads [][]byte
	walSeqs     map[uint64]bool
	serveStats  serve.Stats
	heapPeakMB  float64
	peaks       map[string][]float64 // resident high-water marks by segment group
	phases      []phaseReport

	layers layerSample

	oracleG *graph.Graph
	oracleN int
}

// notePeak files the resident high-water mark since the last reset under
// group, then restarts the mark. A group is a repeated segment of the run
// (one set-up phase, one timed pass of a backend, one serving segment), so
// the run's peak can take each group's median rather than one extreme.
func (r *run) notePeak(group string) error {
	mb, err := peakRSSMB()
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	if r.peaks == nil {
		r.peaks = map[string][]float64{}
	}
	r.peaks[group] = append(r.peaks[group], mb)
	_ = resetPeakRSS() // a failure was reported at the first reset
	return nil
}

// peakRSS is the highest of the groups' median peaks.
func (r *run) peakRSS() float64 {
	peak := 0.0
	for _, xs := range r.peaks {
		peak = max(peak, median(xs))
	}
	return peak
}

// fail counts one failed operation and keeps its reason for the report.
func (r *run) fail(format string, args ...any) {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check as an operation, failed unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if !ok {
		r.fail(format, args...)
	}
}

// execute runs the workload: input generation, one cold set-up whose server
// stays up, the warm-up passes and their checks, then rounds rounds of
// set-ups, mixed serving, closed-loop writes, warm restarts, a capacity rung
// and full-graph passes, then the last store check; traced runs end with
// the per-layer replay. Each round gets an equal share of the budget, and
// its passes take what its other phases leave of it.
func (r *run) execute() error {
	roundDur := r.budget / rounds
	mixedDur := max(time.Duration(float64(roundDur)*r.p.mixedShare), minMixedTime)
	in, err := makeInputs(r.p, r.seed, mixedDur)
	if err != nil {
		return err
	}
	r.in = in
	r.mixedLat = map[eventKind][]float64{}
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(stderr, "perfbench: resident peaks cannot be reset, so peak_rss_mb is the process's high-water mark: %v\n", err)
	}

	sv, err := r.setup(0)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.sv, r.sessionDir = sv, filepath.Join(r.work, "session0")
	defer func() {
		if r.sv != nil {
			r.sv.close()
		}
	}()
	r.oracleG = r.sg
	if err := r.batchWarmup(); err != nil {
		return fmt.Errorf("full-graph passes: %w", err)
	}
	acked := 0
	for k, plan := range r.in.rounds {
		roundEnd := time.Now().Add(roundDur)
		for i := 0; i < setupsPerRound; i++ {
			if err := r.extraSetup(1 + k*setupsPerRound + i); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		var err error
		if acked, err = r.serveRound(k, plan); err != nil {
			return fmt.Errorf("serving, round %d: %w", k+1, err)
		}
		if err := r.batchSlice(roundEnd); err != nil {
			return fmt.Errorf("full-graph passes: %w", err)
		}
	}
	if err := r.verifyStore(r.sv, acked, "after the warm restarts"); err != nil {
		return err
	}
	if r.tr != nil {
		return r.replayLayers()
	}
	return nil
}

// setup decodes the inputs and brings a durable server up cold on the fresh
// session directory session<i>, timed to /readyz. Like a fresh process, it
// starts with the memory of earlier work returned to the system, and files
// its own resident peak. Set-up 0 keeps its graphs and model for the run.
func (r *run) setup(i int) (*server, error) {
	dir := filepath.Join(r.work, fmt.Sprintf("session%d", i))
	runtime.GC()
	debug.FreeOSMemory()
	_ = resetPeakRSS()
	start := time.Now()
	bg, err := graph.Decode(bytes.NewReader(r.in.batchGraph))
	if err != nil {
		return nil, fmt.Errorf("decode graph: %w", err)
	}
	m, err := gas.Load(bytes.NewReader(r.in.model))
	if err != nil {
		return nil, fmt.Errorf("load model: %w", err)
	}
	sg, err := graph.Decode(bytes.NewReader(r.in.serveGraph))
	if err != nil {
		return nil, fmt.Errorf("decode serving graph: %w", err)
	}
	sv, err := startServer(dir, sg, m)
	if err != nil {
		return nil, err
	}
	end := time.Now()
	r.setupS = append(r.setupS, end.Sub(start).Seconds())
	r.tr.record(0, 0, 0, "setup", start, end)
	if err := r.notePeak("setup"); err != nil {
		sv.close()
		return nil, err
	}
	if i == 0 {
		r.bg, r.sg, r.model = bg, sg, m
	}
	return sv, nil
}

// extraSetup times set-up i > 0 and takes its server down again: only
// set-up 0's session serves.
func (r *run) extraSetup(i int) error {
	sv, err := r.setup(i)
	if err != nil {
		return err
	}
	sv.close()
	return os.RemoveAll(filepath.Join(r.work, fmt.Sprintf("session%d", i)))
}

// tails are the mixed phase's latency tails. Each is the highest percentile
// that keeps at least ten samples beyond it at the phase's rates: p99 for
// lookups, p95 for queries, p90 for mutates. They are per-layer metrics of
// the serving layer, not end-to-end ones: on a shared two-core machine
// their run-to-run spread exceeds any bound the benchmark may set.
func (r *run) tails() map[string]metric {
	pct := func(k eventKind, q float64) metric { return metric{quantile(r.mixedLat[k], q), "ms"} }
	return map[string]metric{
		"serve.lookup_p99_ms": pct(evLookup, .99),
		"serve.query_p95_ms":  pct(evQuery, .95),
		"serve.mutate_p90_ms": pct(evMutate, .9),
	}
}

// endToEnd assembles the end-to-end metrics.
func (r *run) endToEnd() map[string]metric {
	p50 := func(k eventKind) float64 { return quantile(r.mixedLat[k], .5) }
	ok := 1.0
	if a := r.attempted.Load(); a > 0 {
		ok = 1 - float64(r.failed)/float64(a)
	}
	return map[string]metric{
		"setup_s":       {median(r.setupS), "s"},
		"pass_s":        {median(passWalls(r.pregel, false)), "s"},
		"mr_pass_s":     {median(passWalls(r.mapreduce, r.tr != nil)), "s"},
		"peak_rss_mb":   {r.peakRSS(), "MB"},
		"lookup_p50_ms": {p50(evLookup), "ms"},
		"query_p50_ms":  {p50(evQuery), "ms"},
		"mutate_p50_ms": {median(r.mutateMs), "ms"},
		"refresh_ms":    {median(r.refreshMs), "ms"},
		"query_max_rps": {staircaseRate(r.rungs), "req/s"},
		"restart_s":     {median(r.restart), "s"},
		"ok_rate":       {ok, "share"},
	}
}
