package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"medcc/internal/cloud"
	"medcc/internal/exper"
	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/workflow"
)

// The campaign pass: the optimality study (Table III at the paper's 5
// instances per size and at 100 instances per extended exact-baseline
// size of 10 to 14 modules, Fig. 7 at the paper's 100 instances per
// size, all against the exact branch-and-bound solver) plus the Figs.
// 9-11 campaign of Critical-Greedy vs GAIN3 over the 20 paper sizes x
// 20 budget levels at the paper's 10 instances per size. The extended
// Table III rows are there so the exact solver is a visible share of
// the pass rather than a rounding error.
const (
	tableIIIInstances = 5
	fig7Instances     = 100
	extendedInstances = 100
	campaignInstances = 10
	campaignLevels    = 20
)

// campaignSetups is how many times the campaign corpus is written;
// setup_s is the median.
const campaignSetups = 15

// passOps counts the schedule solves of one pass: one per instance x
// budget level x algorithm, plus every exact solve.
func passOps() int64 {
	sizes := int64(len(gen.PaperProblemSizes()))
	campaign := sizes * campaignInstances * campaignLevels * 2
	// Table III rows: CG and the exact solver.
	table3 := int64(len(exper.TableIIISizes())*tableIIIInstances+len(exper.ExtendedOptimalitySizes())*extendedInstances) * 2
	// Fig. 7 instances: CG, GAIN3, GAIN3-WRF and the exact solver.
	fig7 := int64(len(exper.Fig7Sizes())*fig7Instances) * 4
	return campaign + table3 + fig7
}

// passResult is what one pass returns for checking.
type passResult struct {
	t3    []exper.TableIIIRow // paper sizes, then extended sizes
	f7    []exper.Fig7Row
	cells []exper.CampaignCell
}

func campaignPass(seed int64) (passResult, error) {
	var r passResult
	var err error
	if r.t3, err = exper.TableIII(seed, tableIIIInstances); err != nil {
		return r, err
	}
	if r.f7, err = exper.Fig7(seed, fig7Instances); err != nil {
		return r, err
	}
	ext, err := exper.TableIIIAt(seed, extendedInstances, exper.ExtendedOptimalitySizes())
	if err != nil {
		return r, err
	}
	r.t3 = append(r.t3, ext...)
	r.cells, err = exper.Campaign(seed, campaignInstances, campaignLevels)
	return r, err
}

// runCampaign is the campaign workload: whole passes until the run's
// time is spent, then the checks.
func runCampaign(rc *runConfig, out *outcome) error {
	// Set-up: the campaign's instance set written as a corpus, which the
	// corpus-backed path replays in the checks below.
	var corpus bytes.Buffer
	var setups []float64
	for rep := 0; rep < campaignSetups; rep++ {
		corpus.Reset()
		t0 := time.Now()
		if _, err := exper.WriteCampaignCorpus(&corpus, rc.seed, campaignInstances, false); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.logf("setup: campaign corpus written %d times (%d bytes): %s s (median %.4f)",
		campaignSetups, corpus.Len(), fmtList(setups), median(setups))

	first, err := campaignPass(rc.seed) // warm-up, not timed
	if err != nil {
		return err
	}
	ops := passOps()
	var walls []float64
	cpu0 := selfCPU()
	start := time.Now()
	deadline := start.Add(time.Duration(rc.seconds * float64(time.Second)))
	for len(walls) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		r, err := campaignPass(rc.seed)
		if err != nil {
			return err
		}
		walls = append(walls, time.Since(t0).Seconds())
		if err := samePass(first, r); err != nil {
			return fmt.Errorf("pass %d: %w", len(walls), err)
		}
	}
	wall := time.Since(start).Seconds()
	cpu := selfCPU() - cpu0
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	n := int64(len(walls))
	out.Attempted, out.Failed = n*ops, 0
	out.logf("timed: %d passes of %d solves, %.2f s, GOMAXPROCS %d; pass p50_ms %.3f p99_ms %.3f (n=%d)",
		n, ops, wall, runtime.GOMAXPROCS(0), median(walls)*1e3, percentile(walls, 99)*1e3, n)

	if err := checkCampaign(rc.seed, first, corpus.Bytes(), out); err != nil {
		return err
	}
	out.metric("setup_s", median(setups), "s")
	out.metric("ops_per_s", float64(n*ops)/wall, "1/s")
	out.metric("p50_ms", median(walls)*1e3, "ms")
	out.metric("cpu_us_per_op", float64(cpu.Microseconds())/float64(n*ops), "us")
	out.metric("peak_rss_mb", rss, "MB")
	return nil
}

// samePass requires a repeated pass to reproduce the first bit for bit:
// every experiment is seeded per work item, whatever the fan-out order.
func samePass(a, b passResult) error {
	if len(a.t3) != len(b.t3) || len(a.f7) != len(b.f7) || len(a.cells) != len(b.cells) {
		return fmt.Errorf("pass shape changed")
	}
	for i := range a.t3 {
		if a.t3[i] != b.t3[i] {
			return fmt.Errorf("Table III row %d changed between passes", i)
		}
	}
	for i := range a.f7 {
		if a.f7[i] != b.f7[i] {
			return fmt.Errorf("Fig. 7 row %d changed between passes", i)
		}
	}
	for i := range a.cells {
		if math.Float64bits(a.cells[i].AvgImp) != math.Float64bits(b.cells[i].AvgImp) {
			return fmt.Errorf("campaign cell %d changed between passes", i)
		}
	}
	return nil
}

// checkCampaign checks a pass against properties the method must have
// and against computations made apart from the campaign path.
//
// medcc:floateq-exact — a CG MED equal to the optimum is the same
// schedule makespan computed the same way; the count is of exact ties.
func checkCampaign(seed int64, p passResult, corpus []byte, out *outcome) error {
	// Table III: the exact optimum is a lower bound on Critical-Greedy.
	hits := 0
	for _, r := range p.t3 {
		if r.CG < r.Optimal {
			return fmt.Errorf("Table III %v #%d: CG MED %v below the exact optimum %v", r.Size, r.Instance, r.CG, r.Optimal)
		}
		if r.CG == r.Optimal {
			hits++
		}
	}
	for _, r := range p.f7 {
		for _, pct := range []float64{r.CGPct, r.GainPct, r.GainWRFPct} {
			if pct < 0 || pct > 100 {
				return fmt.Errorf("Fig. 7 %v: share %v outside [0, 100]", r.Size, pct)
			}
		}
	}
	// Figs. 9-11: the regenerated cells equal the corpus-backed replay
	// of the same seed's instance set, bit for bit.
	cells, err := exper.CampaignFromCorpus(bytes.NewReader(corpus), campaignInstances, campaignLevels)
	if err != nil {
		return err
	}
	if len(cells) != len(p.cells) {
		return fmt.Errorf("corpus campaign has %d cells, regenerated %d", len(cells), len(p.cells))
	}
	for i := range cells {
		if cells[i].SizeIdx != p.cells[i].SizeIdx || cells[i].Level != p.cells[i].Level ||
			math.Float64bits(cells[i].AvgImp) != math.Float64bits(p.cells[i].AvgImp) {
			return fmt.Errorf("campaign cell %d: regenerated %+v, from corpus %+v", i, p.cells[i], cells[i])
		}
	}
	nExact, err := checkExactSolver(seed)
	if err != nil {
		return err
	}
	if err := checkPaperExample(); err != nil {
		return err
	}
	out.logf("checks: Table III CG >= optimum on %d rows (%d equal); %d campaign cells equal the corpus replay; "+
		"%d exact solves equal the oracle's brute force; example breakpoints 48 49 50 52 56 60 64",
		len(p.t3), hits, len(cells), nExact)
	return nil
}

// checkExactSolver solves the benchmark's own small instances (4 to 8
// computing modules, 3 or 4 VM types) at five budgets each with the
// exact solver and compares against the oracle's brute force.
//
// medcc:floateq-exact — both sides are the longest path of a schedule
// summed in path order, so an exact optimum matches to the bit.
func checkExactSolver(seed int64) (int, error) {
	rng := rand.New(rand.NewSource(seed*7 + 3))
	cats := []cloud.Catalog{cloud.PaperExampleCatalog(), cloud.DiminishingCatalog(4, 3, 1, gen.SimulationGamma)}
	n := 0
	for k := 0; k < 12; k++ {
		m := 4 + k%5
		cat := cats[k%2]
		if m > 6 && len(cat) > 3 {
			cat = cats[0] // keep 4^m under the brute-force cap
		}
		edges := m + rng.Intn(m)
		if edges > m*(m-1)/2 {
			edges = m * (m - 1) / 2
		}
		w, err := gen.Random(rng, gen.Params{Modules: m, Edges: edges, WorkloadMin: 10, WorkloadMax: 100, AddEntryExit: true})
		if err != nil {
			return n, err
		}
		in, err := oracleOf(w, cat)
		if err != nil {
			return n, err
		}
		mat, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
		if err != nil {
			return n, err
		}
		cmin, cmax := in.budgetRange()
		for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
			budget := cmin + f*(cmax-cmin)
			want, _, ok, err := in.bruteForce(budget)
			if err != nil || !ok {
				return n, fmt.Errorf("brute force at %v (feasible %v): %w", budget, ok, err)
			}
			opt := &sched.Optimal{}
			s, err := opt.ScheduleInto(nil, w, mat, budget)
			if err != nil {
				return n, err
			}
			if opt.Truncated {
				return n, fmt.Errorf("exact solver truncated on a %d-module instance", m)
			}
			if err := in.validSchedule(s); err != nil {
				return n, err
			}
			if c := in.cost(s); c > budget {
				return n, fmt.Errorf("exact schedule costs %v over budget %v", c, budget)
			}
			if got := in.makespan(s); got != want {
				return n, fmt.Errorf("exact solver MED %v, brute force %v (m=%d, budget %v)", got, want, m, budget)
			}
			n++
		}
	}
	return n, nil
}

// checkPaperExample pins the numerical example: the oracle's range and
// exact-optimum breakpoints, and Critical-Greedy's Table II budget
// intervals, are the paper's 48, 49, 50, 52, 56, 60, 64.
func checkPaperExample() error {
	want := []float64{48, 49, 50, 52, 56, 60, 64}
	w, cat := workflow.PaperExample()
	in, err := oracleOf(w, cat)
	if err != nil {
		return err
	}
	got, err := in.optimalBreakpoints()
	if err != nil {
		return err
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("oracle breakpoints of the example %v, want %v", got, want)
	}
	rows, err := exper.TableII()
	if err != nil {
		return err
	}
	var lo []float64
	for i := len(rows) - 1; i >= 0; i-- {
		lo = append(lo, rows[i].BudgetLo)
	}
	if fmt.Sprint(lo) != fmt.Sprint(want) {
		return fmt.Errorf("Table II budget breakpoints %v, want %v", lo, want)
	}
	return nil
}

// oracleOf hands a generated instance to the oracle in its native JSON
// form, the only form the oracle reads.
func oracleOf(w *workflow.Workflow, cat cloud.Catalog) (*instance, error) {
	wj, err := w.MarshalJSON()
	if err != nil {
		return nil, err
	}
	lc, err := newLibCatalog("", cat)
	if err != nil {
		return nil, err
	}
	return newInstance(wj, lc.o)
}
