package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/inference"
	"inferturbo/internal/serve"
)

// refreshOptions are the served store's pass options: the cmd/serve
// defaults (16 workers on goroutines, fsync on every durable write).
func refreshOptions() inference.Options {
	return inference.Options{NumWorkers: 16, Parallel: true, CheckpointSync: checkpoint.SyncAlways}
}

// server is one running serve.Server behind a loopback HTTP listener.
type server struct {
	s    *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// startServer builds a durable server on dir, starts it (the cold prime, or
// the resume and WAL replay when dir holds a session) and waits until
// /readyz reports ready.
func startServer(dir string, g *graph.Graph, m *gas.Model) (*server, error) {
	s, err := serve.New(serve.Config{Model: m, Graph: g, Refresh: refreshOptions(), SessionDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	sv := &server{s: s, hs: &http.Server{Handler: s.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { sv.done <- sv.hs.Serve(ln) }()
	if err := s.Start(); err != nil {
		sv.close()
		return nil, fmt.Errorf("start: %w", err)
	}
	resp, err := http.Get(sv.base + "/readyz")
	if err != nil {
		sv.close()
		return nil, fmt.Errorf("readyz: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		sv.close()
		return nil, fmt.Errorf("readyz answered %d after Start", resp.StatusCode)
	}
	return sv, nil
}

// close stops the listener, drains in-flight requests, waits for the serve
// loop to exit and closes the server, which lands its session epoch and
// syncs the WAL.
func (sv *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = sv.hs.Shutdown(ctx) // a timed-out drain still closes the listener; Close below stops the rest
	if err := <-sv.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "perfbench: http serve: %v\n", err)
	}
	sv.s.Close()
	http.DefaultClient.CloseIdleConnections()
}

// outcome is one request of a phase: how late the generator sent it, how
// late its own goroutine was once it was free, and its latency from the due
// time.
type outcome struct {
	kind    eventKind
	late    time.Duration
	genLate time.Duration
	latency time.Duration
	ok      bool
}

// phaseReport summarizes one open-loop phase for the result file.
type phaseReport struct {
	Name       string  `json:"name"`
	Requests   int     `json:"requests"`
	Failed     int     `json:"failed"`
	LateP50Ms  float64 `json:"late_p50_ms"`
	LateP99Ms  float64 `json:"late_p99_ms"`
	GenLateP99 float64 `json:"generator_late_p99_ms"`
	// GeneratorBehind flags a phase whose generator goroutines themselves,
	// not a busy connection waiting on the server, sent late; its
	// latencies are not the server's alone.
	GeneratorBehind bool `json:"generator_behind"`
}

// generatorLateLimit is the own-lateness p99 above which a phase is flagged
// as generator-bound.
const generatorLateLimit = 5 * time.Millisecond

// loadWorkers is the number of generator goroutines, one connection each:
// the machine's CPU count, at most four.
func loadWorkers() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// worker is one generator goroutine and its connection.
type worker struct {
	hc        *http.Client
	lastEpoch int64
}

// drive plays evs against sv open-loop. Mutates and stats reads go to the
// first worker, in schedule order, so the WAL receives batches in order;
// lookups, the cheapest requests, share that connection, and queries rotate
// over the others, so neither a mutate nor a lookup waits on its connection
// behind a query. A phase without mutates rotates queries over all workers.
// Each worker sends its next request at its due time, or at once when the
// previous one on its connection ran late. Failures count toward the run
// unless countFailures is off (capacity rungs above capacity shed by design).
func (r *run) drive(name string, sv *server, evs []event, countFailures bool) []outcome {
	nw := loadWorkers()
	hasWrites := false
	for _, e := range evs {
		hasWrites = hasWrites || e.kind == evMutate
	}
	queues := make([][]int, nw)
	next := 0
	rotate := func(from int) int {
		if from >= nw {
			return 0
		}
		w := from + next%(nw-from)
		next++
		return w
	}
	for i, e := range evs {
		w := 0
		if e.kind == evQuery {
			if hasWrites {
				w = rotate(1)
			} else {
				w = rotate(0)
			}
		}
		queues[w] = append(queues[w], i)
	}
	out := make([]outcome, len(evs))
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w := range queues {
		wg.Add(1)
		go func(q []int) {
			defer wg.Done()
			wk := &worker{hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
			defer wk.hc.CloseIdleConnections()
			free := start
			for _, i := range q {
				e := evs[i]
				due := start.Add(e.at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				ready := due
				if free.After(ready) {
					ready = free
				}
				ok := r.do(wk, sv, e, countFailures)
				free = time.Now()
				out[i] = outcome{kind: e.kind, late: sent.Sub(due), genLate: sent.Sub(ready), latency: free.Sub(due), ok: ok}
			}
		}(queues[w])
	}
	wg.Wait()
	r.phases = append(r.phases, summarize(name, out))
	return out
}

// summarize reports how far behind schedule a phase's requests were sent.
func summarize(name string, out []outcome) phaseReport {
	rep := phaseReport{Name: name, Requests: len(out)}
	var late, gen []float64
	for _, o := range out {
		if !o.ok {
			rep.Failed++
		}
		late = append(late, ms(o.late))
		gen = append(gen, ms(o.genLate))
	}
	rep.LateP50Ms, rep.LateP99Ms = quantile(late, .5), quantile(late, .99)
	rep.GenLateP99 = quantile(gen, .99)
	rep.GeneratorBehind = rep.GenLateP99 > ms(generatorLateLimit)
	return rep
}

// do sends one scheduled request and checks its answer. Only requests that
// can fail count as attempted operations: capacity-rung requests, whose failures
// do not count, do not count as attempted either.
func (r *run) do(wk *worker, sv *server, e event, countFailures bool) bool {
	if countFailures {
		r.attempted.Add(1)
	}
	fail := func(format string, args ...any) bool {
		if countFailures {
			r.fail(format, args...)
		}
		return false
	}
	if e.trigger {
		r.persistedAtTrigger.Store(persisted(sv))
	}
	start := time.Now()
	var resp *http.Response
	var err error
	if e.body != nil {
		resp, err = wk.hc.Post(sv.base+e.path, "application/json", bytes.NewReader(e.body))
	} else {
		resp, err = wk.hc.Get(sv.base + e.path)
	}
	if err != nil {
		return fail("%s: %v", e.path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if r.tr != nil {
		req := r.tr.id()
		r.tr.record(req, 0, req, "http "+kindName(e.kind), start, end)
	}
	if err != nil {
		return fail("%s: reading body: %v", e.path, err)
	}
	switch e.kind {
	case evLookup, evQuery:
		if resp.StatusCode != http.StatusOK {
			return fail("%s answered %d: %s", e.path, resp.StatusCode, body)
		}
		// A lookup answers one store row; a query answers a list.
		var qr serve.QueryResponse
		if e.kind == evLookup {
			qr.Answers = make([]serve.Answer, 1)
			err = json.Unmarshal(body, &qr.Answers[0])
		} else {
			err = json.Unmarshal(body, &qr)
		}
		if err != nil || len(qr.Answers) == 0 {
			return fail("%s: undecodable or empty answer", e.path)
		}
		for _, a := range qr.Answers {
			if a.Stale {
				return fail("%s: stale (degraded) answer", e.path)
			}
		}
		if e.kind == evLookup {
			if ep := qr.Answers[0].Epoch; ep < wk.lastEpoch {
				return fail("lookup epoch went backwards: %d after %d", ep, wk.lastEpoch)
			} else {
				wk.lastEpoch = ep
			}
		}
	case evMutate:
		if resp.StatusCode != http.StatusAccepted {
			return fail("mutate %d answered %d: %s", e.batch, resp.StatusCode, body)
		}
		var mr serve.MutateResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			return fail("mutate %d: undecodable answer", e.batch)
		}
		if e.trigger && mr.Refresh != "started" {
			return fail("mutate %d: refresh trigger found a refresh %q", e.batch, mr.Refresh)
		}
		r.acked.Add(1)
		if e.trigger && r.tr != nil {
			r.tr.record(0, 0, 0, "serve.refresh_trigger", start, end)
		}
	case evStats:
		if resp.StatusCode != http.StatusOK {
			return fail("stats answered %d", resp.StatusCode)
		}
		var st serve.Stats
		if err := json.Unmarshal(body, &st); err != nil {
			return fail("stats: undecodable answer")
		}
		return r.noteRefresh(st, countFailures)
	}
	return true
}

func kindName(k eventKind) string {
	return [...]string{"lookup", "query", "mutate", "stats"}[k]
}

// noteRefresh records the mixed-phase refresh a trigger started, read
// before the next trigger: the epoch must have advanced by exactly one
// since the last read.
func (r *run) noteRefresh(st serve.Stats, countFailures bool) bool {
	r.refreshMu.Lock()
	defer r.refreshMu.Unlock()
	if st.Epoch != r.lastEpoch+1 {
		if countFailures {
			r.fail("refresh did not land one epoch before the next trigger: epoch %d after %d", st.Epoch, r.lastEpoch)
		}
		r.lastEpoch = st.Epoch
		return false
	}
	r.lastEpoch = st.Epoch
	r.mixedRefreshMs = append(r.mixedRefreshMs, st.LastRefreshMs)
	return true
}

// persisted is the server's count of session-epoch persists attempted,
// read in process.
func persisted(sv *server) int64 {
	st := sv.s.Metrics()
	return st.SessionEpochs + st.SessionPersistFailures
}

// awaitRefresh waits until the store's epoch has passed epoch, the session
// has attempted a persist beyond persists, and the WAL the persist
// truncates is empty: until a triggered refresh that drained every staged
// batch, the epoch write after it and the WAL truncation after that are all
// done. It returns the server's stats then. The wait polls in process, so
// it adds no requests beside the work it waits for.
func awaitRefresh(sv *server, epoch, persists int64) (serve.Stats, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := sv.s.Metrics()
		if st.Epoch > epoch && st.SessionEpochs+st.SessionPersistFailures > persists && st.WALRecords == 0 {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("no refresh, persist and WAL truncation within 30 s: epoch %d (from %d), persists %d (from %d), %d WAL records",
				st.Epoch, epoch, st.SessionEpochs+st.SessionPersistFailures, persists, st.WALRecords)
		}
		time.Sleep(time.Millisecond)
	}
}

// getLogits reads the store's logits from /v1/logits.
func getLogits(sv *server) ([]float32, error) {
	resp, err := http.Get(sv.base + "/v1/logits")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || len(b)%4 != 0 {
		return nil, fmt.Errorf("logits answered %d with %d bytes", resp.StatusCode, len(b))
	}
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

// postMutate sends one batch closed-loop and returns the server's answer
// and the time to it.
func (r *run) postMutate(sv *server, body []byte) (serve.MutateResponse, time.Duration, error) {
	var mr serve.MutateResponse
	start := time.Now()
	resp, err := http.Post(sv.base+"/v1/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		return mr, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return mr, 0, err
	}
	if r.tr != nil {
		req := r.tr.id()
		r.tr.record(req, 0, req, "http mutate", start, end)
	}
	if resp.StatusCode != http.StatusAccepted {
		return mr, 0, fmt.Errorf("mutate answered %d: %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &mr); err != nil {
		return mr, 0, fmt.Errorf("mutate: undecodable answer")
	}
	return mr, end.Sub(start), nil
}

// verifyStore checks the store after a refresh: /v1/logits must be
// bit-identical to RunPregel on the initial serving graph with the first
// nBatches acknowledged batches applied in order by graph.ApplyDelta, and
// fresh single-root queries must match their /v1/logits rows bit for bit.
// The oracle's graphs and pass are the benchmark's own memory, so the
// resident peak restarts after them.
func (r *run) verifyStore(sv *server, nBatches int, label string) error {
	defer func() {
		debug.FreeOSMemory()
		_ = resetPeakRSS() // a failure was reported at the first reset
	}()
	for r.oracleN < nBatches {
		g, _, err := graph.ApplyDelta(r.oracleG, r.in.batches[r.oracleN])
		if err != nil {
			return fmt.Errorf("oracle: apply batch %d: %w", r.oracleN, err)
		}
		r.oracleG = g
		r.oracleN++
	}
	want, err := inference.RunPregel(r.model, r.oracleG, refreshOptions())
	if err != nil {
		return fmt.Errorf("oracle pass: %w", err)
	}
	got, err := getLogits(sv)
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	r.check(bitsEqual(got, want.Logits.Data), "%s: /v1/logits not bit-identical to RunPregel on the graph rebuilt from %d acknowledged batches", label, nBatches)
	cols := want.Logits.Cols
	for _, root := range r.in.roots {
		body := fmt.Appendf(nil, `{"roots":[%d],"deadline_ms":%d}`, root, queryDeadlineMs)
		resp, err := http.Post(sv.base+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			r.check(false, "%s: verify query %d: %v", label, root, err)
			continue
		}
		var qr serve.QueryResponse
		derr := json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		if derr != nil || resp.StatusCode != http.StatusOK || len(qr.Answers) != 1 || qr.Answers[0].Stale {
			r.check(false, "%s: verify query %d answered %d", label, root, resp.StatusCode)
			continue
		}
		r.check(bitsEqual(qr.Answers[0].Logits, got[int(root)*cols:int(root+1)*cols]),
			"%s: fresh query for root %d differs from its /v1/logits row", label, root)
	}
	return nil
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// serveRound runs one round's serving phases on the resident server: the
// open-loop mixed phase, the closed-loop write groups (after round 0's, the
// store check), the warm restarts and one capacity rung. It returns how
// many batches have been acknowledged so far.
func (r *run) serveRound(k int, plan roundPlan) (int, error) {
	runtime.GC()
	debug.FreeOSMemory()
	_ = resetPeakRSS()
	sv := r.sv
	st := sv.s.Metrics()
	r.lastEpoch = st.Epoch
	r.persistedAtTrigger.Store(st.SessionEpochs + st.SessionPersistFailures)
	stopSampler := r.startHeapSampler()
	gcBefore := readGCPauses()
	out := r.drive(fmt.Sprintf("mixed %d", k+1), sv, plan.mixed, true)
	r.gcPauses.add(gcBefore, readGCPauses())
	r.heapPeakMB = max(r.heapPeakMB, stopSampler())
	r.mixedOut = append(r.mixedOut, out...)
	for _, o := range out {
		if o.ok {
			r.mixedLat[o.kind] = append(r.mixedLat[o.kind], ms(o.latency))
		}
	}
	// The phase ends on a refresh trigger, which no later stats read
	// follows: wait for its refresh, epoch write and WAL truncation, so the
	// writes below start on an idle server.
	r.attempted.Add(1)
	st, err := awaitRefresh(sv, r.lastEpoch, r.persistedAtTrigger.Load())
	if err != nil {
		r.fail("after mixed phase %d: %v", k+1, err)
	} else {
		r.noteRefresh(st, true)
	}

	r.writeGroups(sv, plan.writeFrom)
	acked := plan.tailAt
	if k == 0 {
		if err := r.notePeak("serving"); err != nil {
			return 0, err
		}
		if err := r.verifyStore(sv, acked, "after the first refresh"); err != nil {
			return 0, err
		}
		r.serveStats = sv.s.Metrics()
		r.check(r.serveStats.MutationsRejected == 0, "%d mutation batches rejected at drain", r.serveStats.MutationsRejected)
	}

	// Warm restarts: leave tailBatches acknowledged but unrefreshed,
	// close, and start again on the same session directory.
	for c := 0; c < r.p.restarts; c++ {
		for b := 0; b < tailBatches; b++ {
			r.attempted.Add(1)
			if _, _, err := r.postMutate(sv, r.in.bodies[acked]); err != nil {
				r.fail("tail batch %d: %v", acked, err)
				continue
			}
			acked++
			r.acked.Add(1)
		}
		if st := sv.s.Metrics(); st.WALRecords > 0 {
			r.walRecordBytes = append(r.walRecordBytes, float64(st.WALBytes)/float64(st.WALRecords))
		}
		sv.close()
		r.sv = nil
		if err := r.readWAL(); err != nil {
			return 0, err
		}
		start := time.Now()
		nsv, err := startServer(r.sessionDir, r.sg, r.model)
		if err != nil {
			return 0, fmt.Errorf("warm restart: %w", err)
		}
		r.restart = append(r.restart, time.Since(start).Seconds())
		r.tr.record(0, 0, 0, "serve.restart", start, time.Now())
		sv, r.sv = nsv, nsv
		st := sv.s.Metrics()
		r.check(st.SessionResumed && st.WALReplayed == tailBatches,
			"restart %d: resumed=%v, replayed %d WAL records, want %d", len(r.restart), st.SessionResumed, st.WALReplayed, tailBatches)
		r.replayMs = append(r.replayMs, st.LastReplayMs)
	}
	r.capacityRung(sv)
	return acked, r.notePeak("serving")
}

// writeGroups runs the round's closed-loop write groups from batch first:
// four mutates, then a fifth that triggers a refresh, then a wait until the
// refresh, its epoch write and the WAL truncation are done, so neither the
// next group's mutates nor its refresh meet the last one's work. Every mutate's time to
// its 202 and every refresh's last_refresh_ms are kept; each refresh must
// advance the epoch by exactly one.
func (r *run) writeGroups(sv *server, first int) {
	b := first
	for g := 0; g < r.p.writeGroups; g++ {
		st := sv.s.Metrics()
		epoch, persists := st.Epoch, st.SessionEpochs+st.SessionPersistFailures
		triggered := false
		for i := 0; i < refreshEveryN; i++ {
			r.attempted.Add(1)
			mr, d, err := r.postMutate(sv, r.in.bodies[b])
			trigger := i == refreshEveryN-1
			switch {
			case err != nil:
				r.fail("write batch %d: %v", b, err)
			case trigger && mr.Refresh != "started":
				r.fail("write batch %d: refresh trigger found a refresh %q", b, mr.Refresh)
			default:
				r.mutateMs = append(r.mutateMs, ms(d))
				r.acked.Add(1)
				triggered = trigger
			}
			b++
		}
		if !triggered {
			continue
		}
		r.attempted.Add(1)
		start := time.Now()
		st, err := awaitRefresh(sv, epoch, persists)
		if err != nil {
			r.fail("write group at batch %d: %v", b, err)
			continue
		}
		r.tr.record(0, 0, 0, "serve.refresh", start, time.Now())
		if st.Epoch != epoch+1 {
			r.fail("write group at batch %d: epoch %d after %d", b, st.Epoch, epoch)
			continue
		}
		r.refreshMs = append(r.refreshMs, st.LastRefreshMs)
		if st.SessionPersistMs > 0 {
			r.persistMs = append(r.persistMs, st.SessionPersistMs)
		}
		if snap := sv.s.Store(); snap != nil && snap.Epoch == st.Epoch {
			var active int64
			for _, a := range snap.Stats.StepActive {
				active += a
			}
			r.deltaActive = append(r.deltaActive, float64(active))
			r.refreshKinds = append(r.refreshKinds, snap.RefreshKind)
		}
	}
}

// readWAL keeps the records of the closed server's WAL not seen before, so
// the traced replay appends the payloads the server really wrote. OpenWAL
// is the public reader of the log; on a log its server closed cleanly it
// writes nothing.
func (r *run) readWAL() error {
	wal, recs, err := checkpoint.OpenWAL(r.sessionDir, refreshOptions().CheckpointSync)
	if err != nil {
		return fmt.Errorf("read WAL: %w", err)
	}
	if err := wal.Close(); err != nil {
		return fmt.Errorf("close WAL: %w", err)
	}
	if r.walSeqs == nil {
		r.walSeqs = map[uint64]bool{}
	}
	for _, rec := range recs {
		if !r.walSeqs[rec.Seq] {
			r.walSeqs[rec.Seq] = true
			r.walPayloads = append(r.walPayloads, rec.Payload)
		}
	}
	return nil
}

// capacityRung offers one query-only rung at the staircase's current
// rate: Poisson single-root queries for rungDur. The rung passes when its
// p95 latency is within latencyLimitMs, nothing failed, was shed or
// degraded, and the backlog did not grow; a pass steps the next round's
// rate up by stairStep, a miss steps it down. A one-second rung of a few
// hundred queries keeps ten samples beyond its p95, not beyond its p99.
func (r *run) capacityRung(sv *server) {
	if r.stairRate == 0 {
		r.stairRate = r.p.stairStart()
	}
	rate := r.stairRate
	evs := rungSchedule(r.seed, len(r.rungs)+1, rate, r.sg, rungDur)
	out := r.drive(fmt.Sprintf("capacity %.1f/s", rate), sv, evs, false)
	pass := len(out) > 0 && !backlogGrew(out)
	var lats []float64
	for _, o := range out {
		pass = pass && o.ok
		lats = append(lats, ms(o.latency))
	}
	pass = pass && quantile(lats, .95) <= latencyLimitMs
	r.rungs = append(r.rungs, rung{rate, pass})
	if pass {
		r.stairRate = rate * stairStep
	} else {
		r.stairRate = rate / stairStep
	}
}

// rung is one capacity rung: its offered rate and whether it passed.
type rung struct {
	rate float64
	pass bool
}

// staircaseRate estimates the highest query rate that meets the limits
// from the run's up-down staircase of rungs: the geometric mean of the
// rates offered from the rung before the first reversal on, around which
// the staircase oscillates. Without a reversal it is the highest passing
// rate, or a step below the lowest missing one.
func staircaseRate(rungs []rung) float64 {
	for i := 1; i < len(rungs); i++ {
		if rungs[i].pass != rungs[0].pass {
			logSum := 0.0
			for _, g := range rungs[i-1:] {
				logSum += math.Log(g.rate)
			}
			return math.Exp(logSum / float64(len(rungs)-i+1))
		}
	}
	last := rungs[len(rungs)-1]
	if last.pass {
		return last.rate
	}
	return last.rate / stairStep
}

// backlogGrew reports whether requests fell further behind schedule over
// the rung: the last third's mean lateness exceeds the first third's by
// more than 10 ms.
func backlogGrew(out []outcome) bool {
	n := len(out) / 3
	if n == 0 {
		return false
	}
	mean := func(os []outcome) float64 {
		t := 0.0
		for _, o := range os {
			t += ms(o.late)
		}
		return t / float64(len(os))
	}
	return mean(out[len(out)-n:]) > mean(out[:n])+10
}
