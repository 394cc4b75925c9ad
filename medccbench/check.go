package main

import (
	"encoding/json"
	"fmt"
	"math"

	"medcc/internal/cloud"
)

// schedResponse is the POST /schedule answer as the benchmark reads it.
type schedResponse struct {
	Algorithm string  `json:"algorithm"`
	Budget    float64 `json:"budget"`
	Schedule  []int   `json:"schedule"`
	Makespan  float64 `json:"makespan"`
	Cost      float64 `json:"cost"`
	Truncated bool    `json:"truncated"`
	Trace     *struct {
		Makespan float64 `json:"makespan"`
		Cost     float64 `json:"cost"`
	} `json:"trace"`
}

// checkAnswer verifies one response against the oracle: the budget is
// the requested fraction of the oracle's [Cmin, Cmax]; every module has
// one valid VM type; the cost is the oracle's cost and within budget;
// the makespan is the oracle's longest path and no lower than the
// all-fastest bound; a simulated trace without boot time reproduces the
// analytic makespan and cost, and one with a boot time is no faster.
//
// medcc:floateq-exact — the service and the oracle compute budget, cost
// and longest path by the same expressions in the same order, so a
// correct answer matches to the bit.
func checkAnswer(o *op, body []byte) (*schedResponse, error) {
	var r schedResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode answer: %w", err)
	}
	in := o.inst
	cmin, cmax := in.budgetRange()
	if want := cmin + o.frac*(cmax-cmin); r.Budget != want {
		return nil, fmt.Errorf("budget %v, want %v of [%v, %v] = %v", r.Budget, o.frac, cmin, cmax, want)
	}
	if r.Algorithm != o.alg {
		return nil, fmt.Errorf("algorithm %q, want %q", r.Algorithm, o.alg)
	}
	if err := in.validSchedule(r.Schedule); err != nil {
		return nil, err
	}
	if c := in.cost(r.Schedule); r.Cost != c {
		return nil, fmt.Errorf("cost %v, oracle %v", r.Cost, c)
	}
	if r.Cost > r.Budget {
		return nil, fmt.Errorf("cost %v over budget %v", r.Cost, r.Budget)
	}
	if mk := in.makespan(r.Schedule); r.Makespan != mk {
		return nil, fmt.Errorf("makespan %v, oracle longest path %v", r.Makespan, mk)
	}
	if lb := in.fastestBound(); r.Makespan < lb {
		return nil, fmt.Errorf("makespan %v below the all-fastest bound %v", r.Makespan, lb)
	}
	if r.Truncated {
		return nil, fmt.Errorf("%s answer marked truncated", o.alg)
	}
	switch {
	case !o.simulate:
		if r.Trace != nil {
			return nil, fmt.Errorf("trace on a request without simulate")
		}
	case r.Trace == nil:
		return nil, fmt.Errorf("simulate=true but no trace")
	case o.boot == 0:
		if !closeTo(r.Trace.Makespan, r.Makespan) || !closeTo(r.Trace.Cost, r.Cost) {
			return nil, fmt.Errorf("trace (makespan %v, cost %v) differs from analytic (%v, %v) with no boot time",
				r.Trace.Makespan, r.Trace.Cost, r.Makespan, r.Cost)
		}
	case r.Trace.Makespan < r.Makespan:
		return nil, fmt.Errorf("trace makespan %v with boot time %v below analytic %v", r.Trace.Makespan, o.boot, r.Makespan)
	}
	return &r, nil
}

// closeTo compares a replayed quantity with its analytic value. The
// simulator sums event times on its own clock, in its own order, so the
// two agree to rounding, not bit for bit.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// checkDirect verifies that a cached answer is what a cold, direct
// ScheduleInto at the same budget returns: the cache must be invisible.
func checkDirect(o *op, r *schedResponse) error {
	m, err := o.w.BuildMatrices(o.cat, cloud.HourlyRoundUp)
	if err != nil {
		return err
	}
	into, err := intoScheduler(o.alg)
	if err != nil {
		return err
	}
	got, err := into.ScheduleInto(nil, o.w, m, r.Budget)
	if err != nil {
		return err
	}
	if len(got) != len(r.Schedule) {
		return fmt.Errorf("direct schedule has %d modules, served %d", len(got), len(r.Schedule))
	}
	for i := range got {
		if got[i] != r.Schedule[i] {
			return fmt.Errorf("served schedule differs from a direct cold solve at module %d: %d vs %d", i, r.Schedule[i], got[i])
		}
	}
	if c := m.Cost(got); math.Float64bits(c) != math.Float64bits(r.Cost) {
		return fmt.Errorf("direct cost %v, served %v", c, r.Cost)
	}
	return nil
}
