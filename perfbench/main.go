// Command perfbench is the repository's benchmark. One invocation runs one
// workload with one seed for a fixed time and prints, as its last line, one
// JSON object: whether every correctness check passed, the operations
// attempted and failed, and the end-to-end metrics (or, with --trace 1, the
// per-layer metrics). Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload hub-fanin --seed 1 --seconds 54 --trace 0
//
// Before the result line it prints one "perfbench: " line with the machine
// fingerprint, sample counts, per-phase generator lateness and any failure
// reasons; the same document is written under .bench_build/perfbench/results.
// Two such files are compared with
//
//	.bench_build/bin/perfbench compare A.json B.json
//
// which refuses results whose machine fingerprints differ or that ran while
// the host took more than a tenth of the CPU time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

var stderr io.Writer = os.Stderr

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the detailed result document: the result plus what a reader
// needs to trust or compare it.
type report struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     int            `json:"seconds"`
	Traced      bool           `json:"traced"`
	Fingerprint fingerprint    `json:"fingerprint"`
	Samples     map[string]int `json:"samples"`
	Phases      []phaseReport  `json:"phases"`
	Failures    []string       `json:"failures,omitempty"`
	Notes       []string       `json:"notes,omitempty"`
	// StealShare is the share of CPU time the host took from this virtual
	// machine during the run; a high value marks a run slowed from outside.
	StealShare float64 `json:"steal_share"`
	// Comparable is false when StealShare exceeds maxStealShare: such a
	// run's timings are the host's as much as the program's, and compare
	// refuses it.
	Comparable bool   `json:"comparable"`
	Result     result `json:"result"`
	// Tails are the mixed phase's latency tails, in every run.
	Tails map[string]metric `json:"tails"`
	// PeakRSSMB is each segment group's median resident peak; peak_rss_mb
	// is the highest of them.
	PeakRSSMB map[string]float64 `json:"peak_rss_mb_by_segment"`
	// Extra holds a traced run's own end-to-end figures, for the tracing
	// overhead against an untraced run of the same seed.
	Extra map[string]metric `json:"extra,omitempty"`
}

const outDir = ".bench_build/perfbench"

// maxStealShare is the highest host CPU steal at which a run's timings are
// comparable with another run's. On the two-vCPU machine the benchmark was
// built on, runs above it spread past the end-to-end bounds.
const maxStealShare = 0.10

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload name: hub-fanin | wide-uniform")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "measured time of the run")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	p, ok := profiles[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := benchmark(p, *seed, *seconds, *trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func benchmark(p profile, seed int64, seconds, trace int) error {
	traced := trace == 1
	work, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("work-%s-%d-%d", p.name, seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	r := &run{p: p, seed: seed, budget: time.Duration(seconds) * time.Second, work: work}
	steal0, total0 := cpuSteal()
	if traced {
		r.tr = newTracer()
	}
	if err := r.execute(); err != nil {
		return err
	}
	steal1, total1 := cpuSteal()
	fp, err := machineFingerprint(work)
	if err != nil {
		return err
	}

	res := result{Attempted: r.attempted.Load(), Failed: r.failed}
	e2e := r.endToEnd()
	if traced {
		res.Metrics = r.perLayer()
	} else {
		res.Metrics = e2e
	}
	res.Correct = r.failed == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", name)
		}
	}
	rep := report{
		Workload: p.name, Seed: seed, Seconds: seconds, Traced: traced,
		Fingerprint: fp, Phases: r.phases, Failures: r.failures, Notes: r.notes, Result: res,
		Tails: r.tails(), PeakRSSMB: map[string]float64{},
		Samples: map[string]int{
			"setup":            len(r.setupS),
			"pregel_passes":    len(passWalls(r.pregel, false)),
			"traced_passes":    len(passWalls(r.pregel, true)),
			"mapreduce":        len(r.mapreduce),
			"lookups":          len(r.mixedLat[evLookup]),
			"queries":          len(r.mixedLat[evQuery]),
			"mixed_mutates":    len(r.mixedLat[evMutate]),
			"mixed_refreshes":  len(r.mixedRefreshMs),
			"mutates":          len(r.mutateMs),
			"refreshes":        len(r.refreshMs),
			"restarts":         len(r.restart),
			"mutation_batches": int(r.acked.Load()),
		},
	}
	for group, xs := range r.peaks {
		rep.PeakRSSMB[group] = median(xs)
	}
	if total1 > total0 {
		rep.StealShare = float64(steal1-steal0) / float64(total1-total0)
	}
	rep.Comparable = rep.StealShare <= maxStealShare
	if !rep.Comparable {
		fmt.Fprintf(stderr, "perfbench: the host took %.1f%% of the CPU time (more than %.0f%%): this run is not comparable\n",
			100*rep.StealShare, 100*maxStealShare)
	}
	if traced {
		rep.Extra = e2e
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", p.name, seed, trace)
	if err := writeJSON(filepath.Join(outDir, "results", name), rep); err != nil {
		return err
	}
	if traced {
		if err := r.tr.write(filepath.Join(outDir, "traces", name)); err != nil {
			return err
		}
	}
	detail, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench: %s\n", detail)
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// compareMain prints each metric of two result files side by side, and
// refuses when their machine fingerprints differ.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	var reps [2]report
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", path, err)
			return 2
		}
	}
	a, b := reps[0], reps[1]
	for i, rep := range reps {
		if !rep.Comparable {
			fmt.Fprintf(stderr, "perfbench: refusing to compare: %s ran with %.1f%% host CPU steal (limit %.0f%%)\n",
				args[i], 100*rep.StealShare, 100*maxStealShare)
			return 1
		}
	}
	if diff := a.Fingerprint.machineDiff(b.Fingerprint); diff != "" {
		fmt.Fprintf(stderr, "perfbench: refusing to compare results from different machines: %s\n", diff)
		return 1
	}
	if a.Workload != b.Workload || a.Traced != b.Traced || a.Seconds != b.Seconds {
		fmt.Fprintln(stderr, "perfbench: refusing to compare different workloads, run lengths or trace modes")
		return 1
	}
	fmt.Printf("%s, commits %s -> %s\n", a.Workload, a.Fingerprint.Commit, b.Fingerprint.Commit)
	var names []string
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		x, y := a.Result.Metrics[n], b.Result.Metrics[n]
		change := ""
		if x.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(y.Value-x.Value)/x.Value)
		}
		fmt.Printf("%-32s %14.4f %14.4f %-8s %s\n", n, x.Value, y.Value, x.Unit, change)
	}
	return 0
}

// trimmed returns s without surrounding space, "unknown" when empty.
func trimmed(s string) string {
	if s = strings.TrimSpace(s); s == "" {
		return "unknown"
	}
	return s
}
