package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

const gcPausesMetric = "/sched/pauses/total/gc:seconds"

func readGCPauses() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: gcPausesMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s[0].Value.Float64Histogram()
}

// pauseHist accumulates the GC pauses between pairs of histogram reads.
type pauseHist struct {
	buckets []float64
	counts  []uint64
}

// add adds the pauses between reads a and b.
func (h *pauseHist) add(a, b *metrics.Float64Histogram) {
	if a == nil || b == nil {
		return
	}
	if h.counts == nil {
		h.buckets, h.counts = b.Buckets, make([]uint64, len(b.Counts))
	}
	for i := range b.Counts {
		h.counts[i] += b.Counts[i] - a.Counts[i]
	}
}

// p99 is the p99 of the accumulated pauses in ms (the upper edge of the
// bucket holding it; 0 when nothing paused).
func (h *pauseHist) p99() float64 {
	var total uint64
	for _, c := range h.counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(.99 * float64(total)))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= need {
			edge := h.buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = h.buckets[i]
			}
			return edge * 1e3
		}
	}
	return 0
}

// startHeapSampler samples the live heap every 10 ms in traced runs and
// returns a stop function giving the peak in MB; untraced runs sample
// nothing.
func (r *run) startHeapSampler() func() float64 {
	if r.tr == nil {
		return func() float64 { return 0 }
	}
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := uint64(0)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-stop:
				done <- float64(peak) / (1 << 20)
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// resetPeakRSS restarts the kernel's resident high-water mark for this
// process, so the peak covers the workload and not input generation.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident high-water mark (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, sc.Err()
}

// cpuSteal reads the machine-wide steal and total jiffies from /proc/stat;
// steal is the time a virtual machine's CPUs waited for the host.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
