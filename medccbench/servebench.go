package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Open-loop arrival rates (requests per second): about a quarter of
// each workload's closed-loop capacity on a 2-core machine. Lower rates
// leave the machine idle between requests, and waking idle CPUs then
// lengthens and scatters the median (serve-hit at a tenth of capacity
// moved it by a fifth between runs); higher ones queue requests behind
// serve-solve's longest.
const (
	hitRate   = 6000.0
	solveRate = 200.0
)

// Set-ups per run; setup_s is their median.
const (
	hitSetups   = 5
	solveSetups = 15
)

// Latency limits of the open-loop phase. A request counts as within the
// limit only if it was answered correctly in time; a failed or refused
// one counts as missing it.
const (
	hitLimit   = 5 * time.Millisecond
	solveLimit = 50 * time.Millisecond
)

// serveRun is what both serve workloads share once their server is up:
// a verified request set, the sequence to play, and the open-loop rate.
type serveRun struct {
	srv    *server
	client *http.Client
	seq    []*op
	rate   float64
	limit  time.Duration
	want   map[*op][]byte
}

// dial opens the load generator's connections, one per sender, and
// prebuilds every request of the sequence for them.
func (sr *serveRun) dial(n int) ([]*rawConn, error) {
	prebuild(sr.seq)
	var conns []*rawConn
	for k := 0; k < n; k++ {
		c, err := dialRaw(strings.TrimPrefix(sr.srv.base, "http://"))
		if err != nil {
			for _, c := range conns {
				c.close()
			}
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// runServeHit is the serve-hit workload: query-only requests over the
// library keys, every one a staircase hit.
func runServeHit(rc *runConfig, out *outcome) error {
	lib, err := buildLibrary(rc.seed)
	if err != nil {
		return err
	}
	args, _, err := lib.serverArgs(rc.dir)
	if err != nil {
		return err
	}
	seq, distinct, err := hitOps(lib, rc.seed, 1<<16)
	if err != nil {
		return err
	}
	client := newClient(rc.conns)
	keys := lib.triples()
	var setups []float64
	var srv *server
	for rep := 0; rep < hitSetups; rep++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
			client.CloseIdleConnections()
		}
		t0 := time.Now()
		if srv, err = startServer(rc.serverBin, args); err != nil {
			return err
		}
		if err := buildAllStaircases(client, srv.base, lib, keys); err != nil {
			srv.kill()
			return fmt.Errorf("%w; server log: %s", err, srv.logTail())
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.kill()
	out.logf("setup: %d server starts, each until all %d staircases were built: %s s (median %.4f)",
		hitSetups, len(keys), fmtList(setups), median(setups))

	sr := &serveRun{srv: srv, client: client, seq: seq, rate: hitRate, limit: hitLimit, want: map[*op][]byte{}}
	// Every distinct request is checked against the oracle and against
	// a direct cold solve; the timed phases then compare bytes.
	for _, o := range distinct {
		r, err := sr.verify(o)
		if err != nil {
			return err
		}
		if err := checkDirect(o, r); err != nil {
			return fmt.Errorf("%s: %w", o.path, err)
		}
	}
	out.logf("verified %d distinct requests over %d keys against the oracle and direct cold ScheduleInto", len(distinct), len(keys))

	var before, after serverStats
	if err := getJSON(client, srv.base+"/stats", &before); err != nil {
		return err
	}
	if err := sr.phases(rc, out, setups); err != nil {
		return err
	}
	if err := getJSON(client, srv.base+"/stats", &after); err != nil {
		return err
	}
	ok := out.Attempted - out.Failed
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	out.logf("cache over the timed phases: %d hits, %d misses for %d answered requests", hits, misses, ok)
	if misses != 0 || hits != ok {
		return fmt.Errorf("timed phase was not all cache hits: %d hits, %d misses, %d answers", hits, misses, ok)
	}
	return srv.stop()
}

// buildAllStaircases asks once for every key, which makes the server
// build that key's staircase after answering, then polls GET /stats
// until all of them are installed.
func buildAllStaircases(c *http.Client, base string, lib *library, keys []triple) error {
	var buf bytes.Buffer
	for _, k := range keys {
		u := fmt.Sprintf("%s/schedule?workflow=%s&catalog=%s&algorithm=%s&budget_fraction=0.5",
			base, url.QueryEscape(lib.wfs[k.wf].name), url.QueryEscape(lib.cats[k.cat].name), k.alg)
		code, err := do(c, http.MethodPost, u, nil, &buf)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("set-up request %s: status %d: %s", u, code, buf.String())
		}
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st serverStats
		if err := getJSON(c, base+"/stats", &st); err != nil {
			return err
		}
		if st.Staircases == len(keys) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d staircases built after 120s", st.Staircases, len(keys))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runServeSolve is the serve-solve workload: inline instances, every
// request a full decode, bind and solve.
func runServeSolve(rc *runConfig, out *outcome) error {
	lib, err := buildLibrary(rc.seed)
	if err != nil {
		return err
	}
	args, _, err := lib.serverArgs(rc.dir)
	if err != nil {
		return err
	}
	ops, err := solveOps(rc.seed)
	if err != nil {
		return err
	}
	client := newClient(rc.conns)
	var setups []float64
	var srv *server
	for rep := 0; rep < solveSetups; rep++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
			client.CloseIdleConnections()
		}
		t0 := time.Now()
		if srv, err = startServer(rc.serverBin, args); err != nil {
			return err
		}
		if err := waitHealthy(client, srv.base); err != nil {
			srv.kill()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.kill()
	out.logf("setup: %d server starts with the library loaded, each until GET /healthz answered: %s s (median %.4f)",
		solveSetups, fmtList(setups), median(setups))

	sr := &serveRun{srv: srv, client: client, seq: solveSeq(ops, rc.seed, 8), rate: solveRate, limit: solveLimit, want: map[*op][]byte{}}
	for _, o := range ops {
		if _, err := sr.verify(o); err != nil {
			return err
		}
	}
	out.logf("verified %d distinct inline requests against the oracle", len(ops))
	if err := sr.phases(rc, out, setups); err != nil {
		return err
	}
	return srv.stop()
}

// verify sends o once, checks the answer against the oracle and keeps
// its bytes: answers are deterministic, so every later answer to o must
// be byte-identical.
func (sr *serveRun) verify(o *op) (*schedResponse, error) {
	var buf bytes.Buffer
	code, err := do(sr.client, http.MethodPost, sr.srv.base+o.path, o.body, &buf)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", o.path, code, buf.String())
	}
	r, err := checkAnswer(o, buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.path, err)
	}
	sr.want[o] = append([]byte(nil), buf.Bytes()...)
	return r, nil
}

func (sr *serveRun) check(o *op, status int, body []byte) bool {
	return status == http.StatusOK && bytes.Equal(body, sr.want[o])
}

// sliceLen is one closed-loop plus one open-loop stretch. The phases
// alternate slice by slice over the whole run, so a stretch in which the
// shared machine runs slow weighs on both alike. Throughput and CPU per
// operation are medians of their per-slice values, and move only when
// such a stretch covers most of the run.
const sliceLen = time.Second

// phases runs the closed-loop phase (throughput and server CPU) and the
// open-loop phase (latency at a fixed rate), interleaved in slices, and
// fills the end-to-end metrics.
func (sr *serveRun) phases(rc *runConfig, out *outcome, setups []float64) error {
	slices := int(math.Round(rc.seconds / sliceLen.Seconds()))
	if slices < 1 {
		slices = 1
	}
	half := sliceLen / 2
	pid := sr.srv.pid()
	conns, err := sr.dial(rc.conns)
	if err != nil {
		return err
	}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	// Each phase walks the sequence with its own position, so the open
	// loop, whose request count is fixed by rate and time, answers the
	// same requests in every run of a seed whatever the closed loop's
	// pace: the serve-solve mix spans 0.1 to 10 ms, and which requests a
	// phase happens to draw would otherwise move its median.
	var (
		closed, open        phaseResult
		posClosed, posOpen  int64
		opsS, cpuS          []float64 // per slice
		closedWall, openDur time.Duration
	)
	for k := 0; k < slices; k++ {
		cpu0, err := procCPU(pid)
		if err != nil {
			return err
		}
		cl := closedLoop(conns, sr.seq, posClosed, half, sr.check)
		cpu1, err := procCPU(pid)
		if err != nil {
			return err
		}
		posClosed += cl.attempted
		closed.attempted += cl.attempted
		closed.failed += cl.failed
		closedWall += cl.wall
		if ok := cl.attempted - cl.failed; ok > 0 {
			opsS = append(opsS, float64(ok)/cl.wall.Seconds())
			cpuS = append(cpuS, float64((cpu1-cpu0).Microseconds())/float64(ok))
		}

		ol := openLoop(conns, sr.seq, posOpen, sr.rate, half, sr.check)
		posOpen += ol.attempted
		open.attempted += ol.attempted
		open.failed += ol.failed
		openDur += ol.wall
		open.lat = append(open.lat, ol.lat...)
		open.late = append(open.late, ol.late...)
		open.class = append(open.class, ol.class...)
	}
	if len(opsS) == 0 {
		return fmt.Errorf("closed loop answered nothing")
	}
	q1, ops, q3 := quartiles(opsS)
	c1, cpu, c3 := quartiles(cpuS)
	out.logf("closed loop: %d clients, %d slices, %.2f s: attempted %d failed %d; per slice: ops/s %.0f [%.0f..%.0f], server cpu us/op %.2f [%.2f..%.2f]",
		rc.conns, slices, closedWall.Seconds(), closed.attempted, closed.failed, ops, q1, q3, cpu, c1, c3)
	within := 0
	for _, l := range open.lat {
		if l <= sr.limit.Seconds() {
			within++
		}
	}
	p50, classes := classMedian(open.lat, open.class)
	out.logf("open loop: %.0f req/s over %d connections, %.2f s: attempted %d failed %d; p50_ms %.4f (median of %d class medians); "+
		"all requests: p50_ms %.4f p99_ms %.4f (n=%d), within %v: %d of %d; lateness p50 %.1f us max %.1f us",
		sr.rate, rc.conns, openDur.Seconds(), open.attempted, open.failed, p50*1e3, classes,
		percentile(open.lat, 50)*1e3, percentile(open.lat, 99)*1e3, len(open.lat),
		sr.limit, within, open.attempted, percentile(open.late, 50)*1e6, maxOf(open.late)*1e6)

	rss, err := peakRSSMB(strconv.Itoa(pid))
	if err != nil {
		return err
	}
	out.Attempted += closed.attempted + open.attempted
	out.Failed += closed.failed + open.failed
	out.metric("setup_s", median(setups), "s")
	out.metric("ops_per_s", ops, "1/s")
	out.metric("p50_ms", p50*1e3, "ms")
	out.metric("cpu_us_per_op", cpu, "us")
	out.metric("peak_rss_mb", rss, "MB")
	return nil
}

// minClassSamples is the fewest latencies a request class needs to
// count in classMedian.
const minClassSamples = 10

// classMedian is the median, over request classes with enough samples,
// of each class's median latency. serve-solve's classes (size x body
// format) cost from 0.1 to 10 ms, half of them in JSON decode alone, so
// the median of all its requests sits on a seam between classes where
// the distribution is thin: a few percent of change in the classes'
// relative speed moved it by half between runs. A class median moves
// only as its class does.
func classMedian(lat []float64, class []int) (float64, int) {
	by := map[int][]float64{}
	for i, l := range lat {
		by[class[i]] = append(by[class[i]], l)
	}
	var meds []float64
	for _, c := range sortedClasses(by) {
		if xs := by[c]; len(xs) >= minClassSamples {
			meds = append(meds, median(xs))
		}
	}
	return median(meds), len(meds)
}

func sortedClasses(by map[int][]float64) []int {
	out := make([]int, 0, len(by))
	for c := range by {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// prebuild fills in the raw request bytes of ops.
func prebuild(ops []*op) {
	for _, o := range ops {
		if o.req == nil {
			o.req = rawRequest(o.path, o.body)
		}
	}
}

func fmtList(xs []float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4f", x)
	}
	return b.String()
}
