package main

import (
	"math"
	"testing"
)

// paperJSON is the numerical example of the paper's §V-B: six computing
// modules with workloads {10, 40, 21, 20, 40, 18} between a fixed
// one-hour entry w0 and exit w7.
const paperJSON = `{"modules":[
 {"name":"w0","workload":0,"fixed":true,"fixed_time":1},
 {"name":"w1","workload":10},{"name":"w2","workload":40},{"name":"w3","workload":21},
 {"name":"w4","workload":20},{"name":"w5","workload":40},{"name":"w6","workload":18},
 {"name":"w7","workload":0,"fixed":true,"fixed_time":1}],
 "edges":[{"from":0,"to":1},{"from":0,"to":2},{"from":1,"to":3},{"from":2,"to":4},
 {"from":1,"to":4},{"from":3,"to":6},{"from":3,"to":5},{"from":4,"to":6},
 {"from":5,"to":7},{"from":6,"to":7}]}`

// tableI is the paper's Table I catalog: VP = {3, 15, 30}, CV = {1, 4, 8}.
var tableI = []vmType{{"VT1", 3, 1}, {"VT2", 15, 4}, {"VT3", 30, 8}}

func mustInstance(t *testing.T, doc string, cat []vmType) *instance {
	t.Helper()
	in, err := newInstance([]byte(doc), cat)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPaperExampleBudgetRange(t *testing.T) {
	in := mustInstance(t, paperJSON, tableI)
	cmin, cmax := in.budgetRange()
	if cmin != 48 || cmax != 64 {
		t.Fatalf("budget range [%v, %v], want [48, 64]", cmin, cmax)
	}
	// The least-cost schedule of the paper: w1, w2, w5 on VT2 and
	// w3, w4, w6 on VT1; the fastest puts everything on VT3.
	want := []int{-1, 1, 1, 0, 0, 1, 0, -1}
	if got := in.leastCost(); !equalInts(got, want) {
		t.Fatalf("least-cost schedule %v, want %v", got, want)
	}
	if got := in.fastest(); !equalInts(got, []int{-1, 2, 2, 2, 2, 2, 2, -1}) {
		t.Fatalf("fastest schedule %v", got)
	}
}

func TestPaperExampleBreakpoints(t *testing.T) {
	in := mustInstance(t, paperJSON, tableI)
	got, err := in.optimalBreakpoints()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{48, 49, 50, 52, 56, 60, 64}
	if len(got) != len(want) {
		t.Fatalf("breakpoints %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("breakpoints %v, want %v", got, want)
		}
	}
}

func TestPaperExampleByHand(t *testing.T) {
	in := mustInstance(t, paperJSON, tableI)
	// All on VT3: w1 1/3, w2 4/3, w3 0.7, w4 2/3, w5 4/3, w6 0.6 h.
	// Longest path: w0 -> w2 -> w4 -> w6 -> w7 = 1 + 4/3 + 2/3 + 0.6 + 1.
	fast := in.fastest()
	if got, want := in.makespan(fast), 4.6; math.Abs(got-want) > 1e-12 {
		t.Fatalf("all-VT3 makespan %v, want %v", got, want)
	}
	if got := in.fastestBound(); got != in.makespan(fast) {
		t.Fatalf("fastest bound %v", got)
	}
	// Module bills by hand: w3 = 21 on VT1 is exactly 7 h, 7 units.
	if got := in.execCost(3, 0); got != 7 {
		t.Fatalf("w3 on VT1 costs %v, want 7", got)
	}
	if got := in.execCost(2, 1); got != 12 { // 40/15 = 2.67 h -> 3 h x 4
		t.Fatalf("w2 on VT2 costs %v, want 12", got)
	}
	med, cost, ok, err := in.bruteForce(64)
	if err != nil || !ok {
		t.Fatalf("brute force at Cmax: ok=%v err=%v", ok, err)
	}
	if med != in.fastestBound() || cost > 64 {
		t.Fatalf("optimum at Cmax = (%v, %v), want the all-fastest makespan %v", med, cost, in.fastestBound())
	}
	if _, _, ok, _ := in.bruteForce(47); ok {
		t.Fatal("a schedule fits below Cmin")
	}
}

func TestHandDAGs(t *testing.T) {
	one := []vmType{{"only", 2, 3}}
	// Diamond a -> {b, c} -> d with workloads 2, 6, 4, 2 at power 2:
	// times 1, 3, 2, 1; longest path a-b-d = 5; bills 1+3+2+1 hours x 3.
	diamond := mustInstance(t, `{"modules":[{"name":"a","workload":2},{"name":"b","workload":6},
		{"name":"c","workload":4},{"name":"d","workload":2}],
		"edges":[{"from":0,"to":1},{"from":0,"to":2},{"from":1,"to":3},{"from":2,"to":3}]}`, one)
	s := []int{0, 0, 0, 0}
	if got := diamond.makespan(s); got != 5 {
		t.Fatalf("diamond makespan %v, want 5", got)
	}
	if got := diamond.cost(s); got != 21 {
		t.Fatalf("diamond cost %v, want 21", got)
	}
	// Two independent modules: the makespan is the longer one, not the sum.
	par := mustInstance(t, `{"modules":[{"name":"a","workload":3},{"name":"b","workload":5}],"edges":[]}`, one)
	if got := par.makespan([]int{0, 0}); got != 2.5 {
		t.Fatalf("parallel makespan %v, want 2.5", got)
	}
	// Round-up: 5/2 = 2.5 h bills 3 h; 3/2 = 1.5 h bills 2 h.
	if got := par.cost([]int{0, 0}); got != 15 {
		t.Fatalf("parallel cost %v, want 15", got)
	}
	// Chain of two over a slow-cheap / fast-dear pair: at budget 3 only
	// one module can go fast.
	two := []vmType{{"slow", 1, 1}, {"fast", 4, 4}}
	chain := mustInstance(t, `{"modules":[{"name":"a","workload":4},{"name":"b","workload":2}],
		"edges":[{"from":0,"to":1}]}`, two)
	cmin, cmax := chain.budgetRange()
	if cmin != 6 || cmax != 8 { // slow: 4 + 2; fast: 1 h x 4 + 1 h x 4
		t.Fatalf("chain range [%v, %v], want [6, 8]", cmin, cmax)
	}
	med, cost, ok, err := chain.bruteForce(7)
	if err != nil || !ok || med != 3 || cost != 6 {
		// a fast (1 h, 4) + b slow (2 h, 2) = 3 h at cost 6 beats a slow
		// + b fast = 4.5 h; both fit in 7.
		t.Fatalf("chain optimum at 7 = (%v, %v, %v, %v), want (3, 6)", med, cost, ok, err)
	}
	if err := chain.validSchedule([]int{0, 2}); err == nil {
		t.Fatal("type 2 of a 2-type catalog accepted")
	}
	if _, err := newInstance([]byte(`{"modules":[{"name":"a"},{"name":"b"}],
		"edges":[{"from":0,"to":1},{"from":1,"to":0}]}`), one); err == nil {
		t.Fatal("cycle accepted")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
