package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// The oracle recomputes everything a served schedule claims — its cost,
// its makespan, the feasible budget range, the all-fastest makespan
// bound and, on small instances, the exact optimum — from the native
// workflow JSON and a catalog alone. It imports nothing from the
// program: no dag timing, no workflow evaluation, no scheduler, so a
// fault in any of those cannot hide behind the same fault here.

// vmType is one catalog entry as the oracle reads it.
type vmType struct {
	Name  string  `json:"name"`
	Power float64 `json:"power"`
	Rate  float64 `json:"rate"`
}

// oModule and oEdge mirror the native workflow JSON format.
type oModule struct {
	Name      string  `json:"name"`
	Workload  float64 `json:"workload"`
	Fixed     bool    `json:"fixed"`
	FixedTime float64 `json:"fixed_time"`
}

type oEdge struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// instance is a workflow bound to a catalog.
type instance struct {
	mods  []oModule
	succ  [][]int
	pred  [][]int
	order []int // topological order
	cat   []vmType
}

// billSlack is the billing tolerance of hourly round-up: an occupancy
// within 1e-9 h above a whole hour bills as that hour, so float noise
// in a computed 3.0000000000000004 h does not buy a fourth hour.
const billSlack = 1e-9

// newInstance parses a native workflow JSON document against a catalog.
func newInstance(wfJSON []byte, cat []vmType) (*instance, error) {
	var doc struct {
		Modules []oModule `json:"modules"`
		Edges   []oEdge   `json:"edges"`
	}
	if err := json.Unmarshal(wfJSON, &doc); err != nil {
		return nil, fmt.Errorf("oracle: workflow: %w", err)
	}
	if len(cat) == 0 {
		return nil, errors.New("oracle: empty catalog")
	}
	n := len(doc.Modules)
	in := &instance{mods: doc.Modules, succ: make([][]int, n), pred: make([][]int, n), cat: cat}
	for _, e := range doc.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("oracle: edge %d->%d outside %d modules", e.From, e.To, n)
		}
		in.succ[e.From] = append(in.succ[e.From], e.To)
		in.pred[e.To] = append(in.pred[e.To], e.From)
	}
	indeg := make([]int, n)
	for v := range in.pred {
		indeg[v] = len(in.pred[v])
	}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			in.order = append(in.order, v)
		}
	}
	for k := 0; k < len(in.order); k++ {
		for _, v := range in.succ[in.order[k]] {
			if indeg[v]--; indeg[v] == 0 {
				in.order = append(in.order, v)
			}
		}
	}
	if len(in.order) != n {
		return nil, errors.New("oracle: workflow has a cycle")
	}
	return in, nil
}

// execTime is module i's running time on type j.
func (in *instance) execTime(i, j int) float64 {
	if in.mods[i].Fixed {
		return in.mods[i].FixedTime
	}
	return in.mods[i].Workload / in.cat[j].Power
}

// execCost is module i's bill on type j under hourly round-up; fixed
// modules are free.
func (in *instance) execCost(i, j int) float64 {
	if in.mods[i].Fixed {
		return 0
	}
	d := in.execTime(i, j)
	if d <= 0 {
		return 0
	}
	return math.Ceil(d-billSlack) * in.cat[j].Rate
}

// validSchedule checks one VM type per module: a catalog index for
// every computing module and -1 for fixed ones.
func (in *instance) validSchedule(s []int) error {
	if len(s) != len(in.mods) {
		return fmt.Errorf("schedule has %d entries for %d modules", len(s), len(in.mods))
	}
	for i, j := range s {
		if in.mods[i].Fixed {
			if j != -1 {
				return fmt.Errorf("fixed module %d mapped to type %d", i, j)
			}
		} else if j < 0 || j >= len(in.cat) {
			return fmt.Errorf("module %d mapped to type %d of %d", i, j, len(in.cat))
		}
	}
	return nil
}

// cost sums the module bills in module order.
func (in *instance) cost(s []int) float64 {
	total := 0.0
	for i, j := range s {
		if j >= 0 {
			total += in.execCost(i, j)
		}
	}
	return total
}

// makespan is the longest path through the DAG with each module's
// execution time under s (transfers free).
func (in *instance) makespan(s []int) float64 {
	finish := make([]float64, len(in.mods))
	return in.longestPath(func(i int) float64 {
		j := s[i]
		if j < 0 {
			j = 0
		}
		return in.execTime(i, j)
	}, finish)
}

func (in *instance) longestPath(w func(i int) float64, finish []float64) float64 {
	best := 0.0
	for _, v := range in.order {
		start := 0.0
		for _, p := range in.pred[v] {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[v] = start + w(v)
		if finish[v] > best {
			best = finish[v]
		}
	}
	return best
}

// pick returns, per module, the type minimizing (primary, secondary)
// with the lowest index on a full tie; fixed modules get -1.
//
// medcc:floateq-exact — ties are between identical table cells.
func (in *instance) pick(primary, secondary func(i, j int) float64) []int {
	s := make([]int, len(in.mods))
	for i := range in.mods {
		if in.mods[i].Fixed {
			s[i] = -1
			continue
		}
		best := 0
		for j := 1; j < len(in.cat); j++ {
			p, pb := primary(i, j), primary(i, best)
			if p < pb || (p == pb && secondary(i, j) < secondary(i, best)) {
				best = j
			}
		}
		s[i] = best
	}
	return s
}

// leastCost and fastest are the two ends of the feasible budget range:
// every module on its cheapest type (ties to the faster), and every
// module on its fastest type (ties to the cheaper).
func (in *instance) leastCost() []int { return in.pick(in.execCost, in.execTime) }
func (in *instance) fastest() []int   { return in.pick(in.execTime, in.execCost) }

// budgetRange is [Cmin, Cmax].
func (in *instance) budgetRange() (cmin, cmax float64) {
	return in.cost(in.leastCost()), in.cost(in.fastest())
}

// fastestBound is the all-fastest makespan: no schedule, whatever its
// budget, finishes earlier.
func (in *instance) fastestBound() float64 { return in.makespan(in.fastest()) }

// maxBruteModules caps exhaustive search: 3 types over 8 computing
// modules is 6561 schedules.
const maxBruteModules = 8

// bruteForce enumerates every schedule and returns the least makespan
// among those costing at most budget, with the lowest-cost schedule
// among the ties. ok is false when no schedule fits the budget.
//
// medcc:floateq-exact — a makespan tie is the same path sum.
func (in *instance) bruteForce(budget float64) (med, cost float64, ok bool, err error) {
	var free []int
	s := make([]int, len(in.mods))
	for i := range in.mods {
		if in.mods[i].Fixed {
			s[i] = -1
		} else {
			free = append(free, i)
		}
	}
	if len(free) > maxBruteModules {
		return 0, 0, false, fmt.Errorf("oracle: %d computing modules exceed the brute-force cap %d", len(free), maxBruteModules)
	}
	med = math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == len(free) {
			c := in.cost(s)
			if c > budget {
				return
			}
			if mk := in.makespan(s); mk < med || (mk == med && c < cost) {
				med, cost, ok = mk, c, true
			}
			return
		}
		for j := range in.cat {
			s[free[k]] = j
			rec(k + 1)
		}
	}
	rec(0)
	return med, cost, ok, nil
}

// optimalBreakpoints walks integer budgets from Cmin to Cmax and returns
// Cmin plus every budget at which the exact optimum's makespan drops.
func (in *instance) optimalBreakpoints() ([]float64, error) {
	cmin, cmax := in.budgetRange()
	var out []float64
	prev := math.Inf(1)
	for b := cmin; b <= cmax; b++ {
		med, _, ok, err := in.bruteForce(b)
		if err != nil {
			return nil, err
		}
		if ok && med < prev {
			out = append(out, b)
			prev = med
		}
	}
	return out, nil
}
