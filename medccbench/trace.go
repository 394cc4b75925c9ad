package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"medcc/internal/cloud"
	"medcc/internal/dag"
	"medcc/internal/encoding"
	"medcc/internal/exper"
	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/serve"
	"medcc/internal/sim"
	"medcc/internal/workflow"
)

// The traced run attributes each workload's cost to the layers it
// crosses. It replays a workload's requests (or one campaign pass)
// through nested entry points in turn — loopback HTTP to an in-process
// serve.Server, Handler().ServeHTTP into an in-memory writer,
// Server.Schedule, and the direct layer calls — and times only the
// benchmark's own calls into each layer's public functions. No span is
// recorded inside the program.

// span is one timed call at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 at a root
	Req    int32  `json:"req"`    // request or work item the span belongs to
}

// tracer keeps spans in memory; they are written out when the run ends.
// With on false, begin and end cost a branch, which is how the untraced
// figures behind the tracing overhead are taken.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent, req int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// durations collects the durations (µs) of every span named name, in
// request order, keyed by request id.
func (t *tracer) durations(name string) map[int32]float64 {
	out := map[int32]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Req] += float64(s.End-s.Start) / 1e3
		}
	}
	return out
}

// ids lists a duration map's request ids in order.
func ids(m map[int32]float64) []int32 {
	out := make([]int32, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func values(m map[int32]float64) []float64 {
	xs := make([]float64, 0, len(m))
	for _, id := range ids(m) {
		xs = append(xs, m[id])
	}
	return xs
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// layerHome names, per per-layer metric, the workloads whose path it
// lies on; the first is where it is measured when the traced workload
// is not among them.
var layerHome = []struct {
	name, unit string
	homes      []string
}{
	{"http.floor_us", "us", []string{"serve-hit", "serve-solve"}},
	{"http.rtt_us", "us", []string{"serve-hit", "serve-solve"}},
	{"serve.handler_us", "us", []string{"serve-hit", "serve-solve"}},
	{"serve.handler_allocs", "count", []string{"serve-hit", "serve-solve"}},
	{"serve.resp_bytes", "B", []string{"serve-hit", "serve-solve"}},
	{"serve.schedule_us", "us", []string{"serve-hit", "serve-solve"}},
	{"serve.schedule_allocs", "count", []string{"serve-hit", "serve-solve"}},
	{"serve.cache_hit_ratio", "ratio", []string{"serve-hit"}},
	{"serve.snapshot_ms", "ms", []string{"serve-hit"}},
	{"sched.sweepgrid_ms", "ms", []string{"serve-hit"}},
	{"sched.staircase_levels", "count", []string{"serve-hit"}},
	{"encoding.decode_us", "us", []string{"serve-solve"}},
	{"workflow.json_decode_us", "us", []string{"serve-solve"}},
	{"workflow.matrices_us", "us", []string{"serve-solve"}},
	{"sched.solve_us.critical-greedy", "us", []string{"serve-solve"}},
	{"sched.solve_us.gain3", "us", []string{"serve-solve"}},
	{"dag.timing_us", "us", []string{"serve-solve"}},
	{"sim.replay_us", "us", []string{"serve-solve"}},
	{"serve.queue_us", "us", []string{"serve-solve"}},
	{"gen.instance_us", "us", []string{"campaign"}},
	{"sched.sweep_ms.critical-greedy", "ms", []string{"campaign"}},
	{"sched.sweep_ms.gain3", "ms", []string{"campaign"}},
	{"sched.optimal_us", "us", []string{"campaign"}},
	{"exper.fanout_efficiency", "ratio", []string{"campaign"}},
	{"go.allocs_per_op", "count", []string{"serve-hit", "serve-solve", "campaign"}},
	{"go.gc_per_kop", "count", []string{"serve-hit", "serve-solve", "campaign"}},
}

// runTraced runs every workload's traced replay and reports each
// per-layer metric from the traced workload when the metric lies on its
// path, and otherwise from the first workload whose path it lies on.
func runTraced(rc *runConfig, out *outcome) error {
	found := false
	for _, l := range layerHome {
		for _, h := range l.homes {
			found = found || h == rc.workload
		}
	}
	if !found {
		return fmt.Errorf("no layer lies on workload %q", rc.workload)
	}
	tracers := []struct {
		name string
		fn   func(*runConfig, *tracer, *outcome) (map[string]float64, error)
	}{{"serve-hit", traceServeHit}, {"serve-solve", traceServeSolve}, {"campaign", traceCampaign}}
	byWorkload := map[string]map[string]float64{}
	var all []span
	for _, t := range tracers {
		tr := newTracer()
		ms, err := t.fn(rc, tr, out)
		if err != nil {
			return fmt.Errorf("traced %s: %w", t.name, err)
		}
		byWorkload[t.name] = ms
		for _, s := range tr.spans {
			if s.Parent >= 0 {
				s.Parent += int32(len(all))
			}
			all = append(all, s)
		}
	}
	for _, l := range layerHome {
		from := l.homes[0]
		for _, h := range l.homes {
			if h == rc.workload {
				from = h
			}
		}
		v, ok := byWorkload[from][l.name]
		if !ok {
			return fmt.Errorf("traced %s did not measure %s", from, l.name)
		}
		out.metric(l.name, v, l.unit)
	}
	path := filepath.Join(filepath.Dir(rc.dir), fmt.Sprintf("spans-%s-seed%d.jsonl", rc.workload, rc.seed))
	if err := writeSpans(path, all); err != nil {
		return err
	}
	out.logf("traced: %d operations replayed, %d spans written to %s", out.Attempted, len(all), path)
	return nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocCounter takes runtime.MemStats deltas over many calls.
type allocCounter struct{ mallocs, gcs uint64 }

func startAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{ms.Mallocs, uint64(ms.NumGC)}
}

// per returns allocations per op and collections per thousand ops since
// the counter started.
func (a allocCounter) per(ops int) (allocs, gcPerKop float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-a.mallocs) / float64(ops), float64(uint64(ms.NumGC)-a.gcs) * 1000 / float64(ops)
}

// discardWriter is the in-memory ResponseWriter of the handler replay:
// it keeps the status and counts the body bytes.
type discardWriter struct {
	h      http.Header
	status int
	n      int64
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(s int)   { d.status = s }
func (d *discardWriter) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	d.n += int64(len(p))
	return len(p), nil
}

// replayBody is a request body rewound before every replayed call.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// serveReplay holds what the serve tracers share: an in-process server,
// its handler, the sample of requests, and how to turn request i into
// in-process Params.
type serveReplay struct {
	s      *serve.Server
	h      http.Handler
	ops    []*op
	params func(i int) (serve.Params, error)
	reqs   []*http.Request
	bodies []*replayBody
}

func newServeReplay(s *serve.Server, ops []*op, params func(int) (serve.Params, error)) (*serveReplay, error) {
	sr := &serveReplay{s: s, h: s.Handler(), ops: ops, params: params}
	for _, o := range ops {
		b := &replayBody{}
		req, err := http.NewRequest(http.MethodPost, "http://medcc"+o.path, nil)
		if err != nil {
			return nil, err
		}
		req.Body = b
		sr.reqs = append(sr.reqs, req)
		sr.bodies = append(sr.bodies, b)
	}
	return sr, nil
}

// allocOps is about how many calls allocation and GC counts are taken
// over; allocReps and allocBudget cap the passes over the sample that
// takes.
const (
	allocOps    = 20000
	allocReps   = 5
	allocBudget = 1500 * time.Millisecond
)

// replayPasses runs pass untraced once to warm up, then a few times
// untraced (counting allocations and collections, and the time), then
// once traced. It returns allocations per call, collections per thousand
// calls, and the observed tracing overhead per call in µs: traced minus
// untraced time of the same pass, which on a shared machine is mostly
// noise next to the spans' own cost (see spanCost).
func replayPasses(tr *tracer, n int, pass func() error) (allocs, gcPerKop, overhead float64, err error) {
	tr.on = false
	t0 := time.Now()
	if err := pass(); err != nil {
		return 0, 0, 0, err
	}
	reps := allocOps / n
	if d := time.Since(t0); d > 0 && int(allocBudget/d) < reps {
		reps = int(allocBudget / d)
	}
	if reps < 1 {
		reps = 1
	} else if reps > allocReps {
		reps = allocReps
	}
	ac := startAllocs()
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		if err := pass(); err != nil {
			return 0, 0, 0, err
		}
	}
	untraced := time.Since(t0) / time.Duration(reps)
	allocs, gcPerKop = ac.per(reps * n)
	tr.on = true
	t0 = time.Now()
	err = pass()
	return allocs, gcPerKop, perOp(time.Since(t0)-untraced, n), err
}

// spanCost is what recording one span costs, in µs: the tracing
// overhead a request pays per span it carries.
func spanCost() float64 {
	const n = 100000
	t := &tracer{on: true, t0: time.Now(), spans: make([]span, 0, n)}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", -1, int32(i)))
	}
	return perOp(time.Since(t0), n)
}

// levels replays the sample through the nested entry points and returns
// their metrics.
func (sr *serveReplay) levels(tr *tracer, out *outcome, workload string) (map[string]float64, error) {
	ms := map[string]float64{}
	n := len(sr.ops)
	out.Attempted += int64(n)

	// 1. Loopback HTTP: a no-op handler first (net/http's own floor),
	// then the server's handler, both served from this process to the
	// same one-connection client.
	floor, err := loopback(tr, "http.floor", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusOK)
	}), sr.ops)
	if err != nil {
		return nil, err
	}
	rtt, err := loopback(tr, "http.rtt", sr.h, sr.ops)
	if err != nil {
		return nil, err
	}
	ms["http.floor_us"] = median(values(floor))
	ms["http.rtt_us"] = median(values(rtt))

	// 2. Handler().ServeHTTP into an in-memory writer.
	var bytesOut int64
	w := &discardWriter{h: http.Header{}}
	handlerPass := func() error {
		bytesOut = 0
		for i, req := range sr.reqs {
			sr.bodies[i].Reset(sr.ops[i].body)
			w.status, w.n = 0, 0
			sp := tr.begin("serve.handler", -1, int32(i))
			sr.h.ServeHTTP(w, req)
			tr.end(sp)
			if w.status != http.StatusOK {
				return fmt.Errorf("%s: handler status %d", sr.ops[i].path, w.status)
			}
			bytesOut += w.n
		}
		return nil
	}
	allocs, gcs, handlerOver, err := replayPasses(tr, n, handlerPass)
	if err != nil {
		return nil, err
	}
	ms["serve.handler_allocs"], ms["go.allocs_per_op"], ms["go.gc_per_kop"] = allocs, allocs, gcs
	hd := tr.durations("serve.handler")
	ms["serve.handler_us"] = median(values(hd))
	ms["serve.resp_bytes"] = float64(bytesOut) / float64(n)

	// 3. Server.Schedule, the in-process entry point. Making the Params
	// is outside the spans; its allocations are counted apart and taken
	// off.
	var res serve.Result
	paramsPass := func() error {
		for i := range sr.ops {
			if _, err := sr.params(i); err != nil {
				return err
			}
		}
		return nil
	}
	paramAllocs, _, _, err := replayPasses(tr, n, paramsPass)
	if err != nil {
		return nil, err
	}
	schedulePass := func() error {
		for i := range sr.ops {
			p, err := sr.params(i)
			if err != nil {
				return err
			}
			sp := tr.begin("serve.schedule", -1, int32(i))
			err = sr.s.Schedule(p, &res)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: Schedule: %w", sr.ops[i].path, err)
			}
		}
		return nil
	}
	allocs, _, scheduleOver, err := replayPasses(tr, n, schedulePass)
	if err != nil {
		return nil, err
	}
	ms["serve.schedule_allocs"] = allocs - paramAllocs
	sd := tr.durations("serve.schedule")
	ms["serve.schedule_us"] = median(values(sd))

	out.logf("%s trace: %d requests; http.rtt p50 %.2f us, net/http floor %.2f us; self time p50: http (rtt - handler) %.2f us, handler (handler - schedule) %.2f us",
		workload, n, ms["http.rtt_us"], ms["http.floor_us"], median(selfTime(rtt, hd)), median(selfTime(hd, sd)))
	out.logf("%s tracing overhead per request: %.3f us per span; observed traced minus untraced: handler %+.3f us, schedule %+.3f us",
		workload, spanCost(), handlerOver, scheduleOver)
	return ms, nil
}

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }

// selfTime is, per request, an entry point's duration minus that of
// the entry point nested below it.
func selfTime(outer, inner map[int32]float64) []float64 {
	var xs []float64
	for _, id := range ids(outer) {
		if c, ok := inner[id]; ok {
			xs = append(xs, outer[id]-c)
		}
	}
	return xs
}

// loopback serves h on a loopback port of this process and replays ops
// through one connection of the load generator's client, timing each
// round trip.
func loopback(tr *tracer, name string, h http.Handler, ops []*op) (map[int32]float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	c, err := dialRaw(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer c.close()
	prebuild(ops)
	var buf bytes.Buffer
	// One untimed request warms the connection.
	if _, err := c.roundTrip(ops[0].req, &buf); err != nil {
		return nil, err
	}
	tr.on = true
	for i, o := range ops {
		sp := tr.begin(name, -1, int32(i))
		code, err := c.roundTrip(o.req, &buf)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("%s %s: status %d", name, o.path, code)
		}
	}
	return tr.durations(name), nil
}

// hitTraceSample is how many requests of the serve-hit sequence the
// traced run replays.
const hitTraceSample = 4000

// traceServeHit replays a sample of the serve-hit sequence, and times
// the set-up layers: snapshot build and staircase sweeps.
func traceServeHit(rc *runConfig, tr *tracer, out *outcome) (map[string]float64, error) {
	lib, err := buildLibrary(rc.seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(rc.dir, "hit")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	_, slib, err := lib.serverArgs(dir)
	if err != nil {
		return nil, err
	}
	var snaps []float64
	var s *serve.Server
	for rep := 0; rep < 3; rep++ {
		if s != nil {
			s.Close()
		}
		t0 := time.Now()
		if s, err = serve.New(serve.Config{Library: slib}); err != nil {
			return nil, err
		}
		snaps = append(snaps, float64(time.Since(t0).Microseconds())/1e3)
	}
	defer s.Close()
	ms := map[string]float64{"serve.snapshot_ms": median(snaps)}

	// The staircase sweeps, one per key, as the cache builds them.
	snap := s.Snapshot()
	var sweepMS float64
	levels := 0
	keys := lib.triples()
	tr.on = true
	for i, k := range keys {
		wn, cn := lib.wfs[k.wf].name, lib.cats[k.cat].name
		m, cmin, cmax, ok := snap.Pair(wn, cn)
		if !ok {
			return nil, fmt.Errorf("pair %s/%s missing from the snapshot", wn, cn)
		}
		alg, err := intoScheduler(k.alg)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("sched.sweepgrid", -1, int32(i))
		st, err := sched.SweepGrid(alg, snap.Workflows[wn], m, cmin, cmax, sched.GridOptions{})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sweepMS += float64(tr.spans[sp].End-tr.spans[sp].Start) / 1e6
		levels += st.Levels()
	}
	ms["sched.sweepgrid_ms"] = sweepMS
	ms["sched.staircase_levels"] = float64(levels)

	// Fill the server's cache as serve-hit's set-up does, then replay.
	for _, k := range keys {
		var res serve.Result
		p := serve.Params{WorkflowRef: lib.wfs[k.wf].name, CatalogRef: lib.cats[k.cat].name,
			Algorithm: k.alg, UseFraction: true, Fraction: 0.5}
		if err := s.Schedule(p, &res); err != nil {
			return nil, err
		}
	}
	h := s.Handler()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, err := handlerStats(h)
		if err != nil {
			return nil, err
		}
		if st.Staircases == len(keys) {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("only %d of %d staircases built", st.Staircases, len(keys))
		}
		time.Sleep(2 * time.Millisecond)
	}
	seq, _, err := hitOps(lib, rc.seed, hitTraceSample)
	if err != nil {
		return nil, err
	}
	params := func(i int) (serve.Params, error) {
		o := seq[i]
		return serve.Params{WorkflowRef: lib.wfs[o.key.wf].name, CatalogRef: lib.cats[o.key.cat].name,
			Algorithm: o.alg, UseFraction: true, Fraction: o.frac}, nil
	}
	before, err := handlerStats(h)
	if err != nil {
		return nil, err
	}
	sr, err := newServeReplay(s, seq, params)
	if err != nil {
		return nil, err
	}
	lv, err := sr.levels(tr, out, "serve-hit")
	if err != nil {
		return nil, err
	}
	after, err := handlerStats(h)
	if err != nil {
		return nil, err
	}
	for k, v := range lv {
		ms[k] = v
	}
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	ms["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	out.logf("serve-hit trace: snapshot build p50 %.2f ms; %d staircases, %d levels, %.1f ms of sweeps; cache %d hits %d misses",
		ms["serve.snapshot_ms"], len(keys), levels, sweepMS, hits, misses)
	return ms, nil
}

func handlerStats(h http.Handler) (serverStats, error) {
	var st serverStats
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if w.Code != http.StatusOK {
		return st, fmt.Errorf("GET /stats: status %d", w.Code)
	}
	return st, json.Unmarshal(w.Body.Bytes(), &st)
}

func intoScheduler(name string) (sched.IntoScheduler, error) {
	s, err := sched.Get(name)
	if err != nil {
		return nil, err
	}
	into, ok := s.(sched.IntoScheduler)
	if !ok {
		return nil, fmt.Errorf("%s has no ScheduleInto", name)
	}
	return into, nil
}

// solveTraceRounds is how many rounds of the serve-solve requests the
// traced run replays.
const solveTraceRounds = 1

// traceServeSolve replays serve-solve's rounds through the nested entry
// points, then through the direct layer calls that make up a solve.
func traceServeSolve(rc *runConfig, tr *tracer, out *outcome) (map[string]float64, error) {
	lib, err := buildLibrary(rc.seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(rc.dir, "solve")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	_, slib, err := lib.serverArgs(dir)
	if err != nil {
		return nil, err
	}
	round, err := solveOps(rc.seed)
	if err != nil {
		return nil, err
	}
	seq := solveSeq(round, rc.seed, solveTraceRounds)
	s, err := serve.New(serve.Config{Library: slib})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	// Every call gets a freshly decoded workflow, as a served request
	// does: its graph's derived orders are built on first use, inside the
	// call.
	params := func(i int) (serve.Params, error) {
		o := seq[i]
		w := workflow.New()
		err := w.UnmarshalJSON(o.wfJSON)
		return serve.Params{Workflow: w, Catalog: o.cat, Algorithm: o.alg, UseFraction: true,
			Fraction: o.frac, Simulate: o.simulate, BootTime: o.boot}, err
	}
	sr, err := newServeReplay(s, seq, params)
	if err != nil {
		return nil, err
	}
	ms, err := sr.levels(tr, out, "serve-solve")
	if err != nil {
		return nil, err
	}
	sched := tr.durations("serve.schedule")

	// 4. The direct layer calls, each request under one parent span.
	d := newDirect()
	_, _, overhead, err := replayPasses(tr, len(seq), func() error {
		for i, o := range seq {
			if err := d.call(tr, int32(i), o); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	dec := tr.durations("encoding.decode")
	jdec := tr.durations("workflow.json_decode")
	mat := tr.durations("workflow.matrices")
	timing := tr.durations("dag.timing")
	replay := tr.durations("sim.replay")
	ms["encoding.decode_us"] = median(values(dec))
	ms["workflow.json_decode_us"] = median(values(jdec))
	ms["workflow.matrices_us"] = median(values(mat))
	ms["dag.timing_us"] = median(values(timing))
	ms["sim.replay_us"] = median(values(replay))
	solve := map[int32]float64{}
	for _, a := range algorithms {
		ds := tr.durations("sched.solve." + a)
		ms["sched.solve_us."+a] = median(values(ds))
		for id, v := range ds {
			solve[id] = v
		}
	}
	// Queue, hand-off and batching: Server.Schedule minus the direct
	// layer calls it makes for the same request (decode excluded: the
	// in-process entry point takes decoded instances).
	var queue []float64
	for _, id := range ids(sched) {
		queue = append(queue, sched[id]-mat[id]-solve[id]-timing[id]-replay[id])
	}
	ms["serve.queue_us"] = median(queue)
	out.logf("serve-solve trace: direct layer calls p50: container decode %.1f us, JSON decode %.1f us, matrices %.1f us, "+
		"CG %.1f us, GAIN3 %.1f us, timing %.1f us, replay %.1f us (%d simulated); queue %.1f us; observed tracing overhead %+.3f us per request",
		ms["encoding.decode_us"], ms["workflow.json_decode_us"], ms["workflow.matrices_us"],
		ms["sched.solve_us.critical-greedy"], ms["sched.solve_us.gain3"], ms["dag.timing_us"], ms["sim.replay_us"],
		len(replay), ms["serve.queue_us"], overhead)
	return ms, nil
}

// direct is the per-layer scratch of the direct replay, pooled the way
// a serving worker pools it.
type direct struct {
	cr  encoding.CorpusReader
	dec encoding.Decoder
	// medcc:lint-ignore epochguard — owner: decoded into afresh per request, nothing derived is kept across
	w *workflow.Workflow
	// medcc:lint-ignore epochguard — owner: rebuilt via BuildMatricesInto on every request
	m     *workflow.Matrices
	algs  map[string]sched.IntoScheduler
	s     workflow.Schedule
	times []float64
	rep   sim.Replayer
	res   sim.Result
}

func newDirect() *direct { return &direct{w: workflow.New(), algs: map[string]sched.IntoScheduler{}} }

// call runs one request's layers: decode, matrix bind, solve, makespan
// and, when asked, trace replay.
func (d *direct) call(tr *tracer, id int32, o *op) error {
	root := tr.begin("direct", -1, id)
	defer tr.end(root)
	if o.container {
		if err := d.cr.Reset(bytes.NewReader(o.body)); err != nil {
			return err
		}
		rec, _, _, err := d.cr.NextRaw()
		if err != nil {
			return err
		}
		sp := tr.begin("encoding.decode", root, id)
		err = d.dec.WorkflowInto(rec, rec.Find(encoding.ChunkWorkflow), d.w)
		tr.end(sp)
		if err != nil {
			return err
		}
	} else {
		sp := tr.begin("workflow.json_decode", root, id)
		err := d.w.UnmarshalJSON(o.wfJSON)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp := tr.begin("workflow.matrices", root, id)
	m, err := d.w.BuildMatricesInto(o.cat, cloud.HourlyRoundUp, d.m)
	if err == nil {
		m.BuildOptions()
		d.m = m
	}
	cmin, cmax := m.BudgetRange(d.w)
	tr.end(sp)
	if err != nil {
		return err
	}
	alg, ok := d.algs[o.alg]
	if !ok {
		if alg, err = intoScheduler(o.alg); err != nil {
			return err
		}
		d.algs[o.alg] = alg
	}
	sp = tr.begin("sched.solve."+o.alg, root, id)
	d.s, err = alg.ScheduleInto(d.s, d.w, m, sched.BudgetAt(cmin, cmax, o.frac))
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("dag.timing", root, id)
	err = d.w.ValidateSchedule(d.s, len(o.cat))
	if err == nil {
		d.times = m.TimesInto(d.s, d.times)
		_, err = dag.NewTiming(d.w.Graph(), d.times, nil)
	}
	tr.end(sp)
	if err != nil || !o.simulate {
		return err
	}
	sp = tr.begin("sim.replay", root, id)
	err = d.rep.RunInto(sim.Config{Workflow: d.w, Matrices: m, Schedule: d.s, BootTime: o.boot}, &d.res)
	tr.end(sp)
	return err
}

// traceCampaign replays one campaign pass serially through the layer
// calls it is made of, and measures the real, parallel pass.
func traceCampaign(rc *runConfig, tr *tracer, out *outcome) (map[string]float64, error) {
	ms := map[string]float64{}
	if _, err := campaignPass(rc.seed); err != nil { // warm-up
		return nil, err
	}
	ac := startAllocs()
	var walls []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		if _, err := campaignPass(rc.seed); err != nil {
			return nil, err
		}
		walls = append(walls, float64(time.Since(t0).Microseconds()))
	}
	ms["go.allocs_per_op"], ms["go.gc_per_kop"] = ac.per(3 * int(passOps()))
	wall := median(walls)

	out.Attempted += passOps()
	cp := &campaignReplay{tr: tr}
	t0 := time.Now()
	tr.on = false
	if err := cp.pass(rc.seed); err != nil {
		return nil, err
	}
	untraced := time.Since(t0)
	t0 = time.Now()
	tr.on = true
	if err := cp.pass(rc.seed); err != nil {
		return nil, err
	}
	traced := time.Since(t0)

	byName := map[string][]float64{}
	serial := 0.0
	for _, s := range tr.spans {
		if s.Name == "pass" || s.Name == "item" {
			continue
		}
		d := float64(s.End-s.Start) / 1e3
		byName[s.Name] = append(byName[s.Name], d)
		serial += d
	}
	ms["gen.instance_us"] = median(byName["gen.instance"])
	for _, a := range algorithms {
		ms["sched.sweep_ms."+a] = sum(byName["sched.sweep."+a]) / 1e3
	}
	ms["sched.optimal_us"] = median(byName["sched.optimal"])
	procs := runtime.GOMAXPROCS(0)
	ms["exper.fanout_efficiency"] = serial / (wall * float64(procs))
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	var shares bytes.Buffer
	for _, n := range names {
		fmt.Fprintf(&shares, " %s %.1f%%", n, 100*sum(byName[n])/serial)
	}
	out.logf("campaign trace: pass wall p50 %.1f ms on %d procs; serial layer time %.1f ms; shares:%s; tracing overhead %.3f us per span, observed %+.3f us per solve",
		wall/1e3, procs, serial/1e3, shares.String(), spanCost(), perOp(traced-untraced, int(passOps())))
	return ms, nil
}

// campaignReplay is one campaign pass rebuilt from the layers' public
// functions: the same experiments, sizes and counts as campaignPass, run
// serially so every layer call can be timed.
type campaignReplay struct {
	tr *tracer
	b  gen.Builder
	// medcc:lint-ignore epochguard — owner: rebuilt in place per instance; the timing derived from it is guarded by tver
	m       *workflow.Matrices
	algs    map[string]sched.IntoScheduler
	opt     sched.Optimal
	dst     workflow.Schedule
	rows    []workflow.Schedule
	budgets []float64
	times   []float64
	t       *dag.Timing
	tver    uint64
	item    int32
}

func (cp *campaignReplay) pass(seed int64) error {
	cp.opt.Workers = 1
	if cp.algs == nil {
		cp.algs = map[string]sched.IntoScheduler{}
		for _, a := range []string{"critical-greedy", "gain3", "gain3-wrf"} {
			s, err := intoScheduler(a)
			if err != nil {
				return err
			}
			cp.algs[a] = s
		}
	}
	root := cp.tr.begin("pass", -1, -1)
	defer cp.tr.end(root)
	// Table III at the paper's and at the extended sizes: per instance,
	// CG and the exact solver at one budget.
	for _, t3 := range []struct {
		sizes []gen.ProblemSize
		n     int
	}{{exper.TableIIISizes(), tableIIIInstances}, {exper.ExtendedOptimalitySizes(), extendedInstances}} {
		for si, size := range t3.sizes {
			for k := 0; k < t3.n; k++ {
				if err := cp.optimality(root, seed+int64(si*t3.n+k), size, "critical-greedy"); err != nil {
					return err
				}
			}
		}
	}
	// Fig. 7: per instance, three heuristics and the exact solver.
	for si, size := range exper.Fig7Sizes() {
		for k := 0; k < fig7Instances; k++ {
			if err := cp.optimality(root, seed+int64(si)*7919+int64(k), size, "critical-greedy", "gain3", "gain3-wrf"); err != nil {
				return err
			}
		}
	}
	// Figs. 9-11: per instance, a warm budget sweep per algorithm and a
	// makespan per level.
	for si, size := range gen.PaperProblemSizes() {
		for k := 0; k < campaignInstances; k++ {
			item := cp.begin(root)
			rng := newReplayRNG(seed+int64(si)*104729, k)
			sp := cp.tr.begin("gen.instance", item, cp.item)
			w, cat, err := cp.b.Instance(rng, size)
			cp.tr.end(sp)
			if err != nil {
				return err
			}
			cmin, cmax, err := cp.bind(item, w, cat)
			if err != nil {
				return err
			}
			cp.budgets = cp.budgets[:0]
			for lv := 1; lv <= campaignLevels; lv++ {
				cp.budgets = append(cp.budgets, cmin+float64(lv)/campaignLevels*(cmax-cmin))
			}
			for _, a := range algorithms {
				sp := cp.tr.begin("sched.sweep."+a, item, cp.item)
				cp.rows, err = sched.SweepSchedules(cp.algs[a], cp.rows, w, cp.m, cp.budgets)
				cp.tr.end(sp)
				if err != nil {
					return err
				}
				for _, s := range cp.rows {
					if err := cp.makespan(item, w, s); err != nil {
						return err
					}
				}
			}
			cp.tr.end(item)
		}
	}
	return nil
}

func (cp *campaignReplay) begin(root int32) int32 {
	cp.item++
	return cp.tr.begin("item", root, cp.item)
}

// optimality is one optimality-study item: a small instance on the
// paper's Table I catalog, the named heuristics and the exact solver at
// one budget.
func (cp *campaignReplay) optimality(root int32, s int64, size gen.ProblemSize, heuristics ...string) error {
	item := cp.begin(root)
	defer cp.tr.end(item)
	sp := cp.tr.begin("gen.instance", item, cp.item)
	w, err := cp.b.Random(newReplayRNG(s, 0), gen.Params{Modules: size.M, Edges: size.E,
		WorkloadMin: 10, WorkloadMax: 100, DataSizeMax: 10, AddEntryExit: true})
	cp.tr.end(sp)
	if err != nil {
		return err
	}
	cmin, cmax, err := cp.bind(item, w, cloud.PaperExampleCatalog())
	if err != nil {
		return err
	}
	budget := (cmin + cmax) / 2
	for _, h := range heuristics {
		sp := cp.tr.begin("sched.solve."+h, item, cp.item)
		cp.dst, err = cp.algs[h].ScheduleInto(cp.dst, w, cp.m, budget)
		cp.tr.end(sp)
		if err != nil {
			return err
		}
		if err := cp.makespan(item, w, cp.dst); err != nil {
			return err
		}
	}
	sp = cp.tr.begin("sched.optimal", item, cp.item)
	cp.dst, err = cp.opt.ScheduleInto(cp.dst, w, cp.m, budget)
	cp.tr.end(sp)
	if err != nil {
		return err
	}
	if cp.opt.Truncated {
		return fmt.Errorf("exact solver truncated on a %d-module instance", size.M)
	}
	return cp.makespan(item, w, cp.dst)
}

func (cp *campaignReplay) bind(item int32, w *workflow.Workflow, cat cloud.Catalog) (cmin, cmax float64, err error) {
	sp := cp.tr.begin("workflow.matrices", item, cp.item)
	defer cp.tr.end(sp)
	if cp.m, err = w.BuildMatricesInto(cat, cloud.HourlyRoundUp, cp.m); err != nil {
		return 0, 0, err
	}
	cmin, cmax = cp.m.BudgetRange(w)
	return cmin, cmax, nil
}

// makespan evaluates s as the campaign does: a fresh timing on the
// first schedule of an instance, an in-place update after that.
func (cp *campaignReplay) makespan(item int32, w *workflow.Workflow, s workflow.Schedule) error {
	sp := cp.tr.begin("dag.timing", item, cp.item)
	defer cp.tr.end(sp)
	cp.times = cp.m.TimesInto(s, cp.times)
	g := w.Graph()
	if cp.t == nil || cp.tver != g.Version() {
		t, err := dag.NewTiming(g, cp.times, nil)
		cp.t, cp.tver = t, g.Version()
		return err
	}
	return cp.t.Update(cp.times)
}

// newReplayRNG seeds work item k the way the experiments do.
func newReplayRNG(seed int64, k int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(k)*1_000_003))
}
