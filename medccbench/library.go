package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strconv"

	"medcc/internal/cloud"
	"medcc/internal/encoding"
	"medcc/internal/gen"
	"medcc/internal/serve"
	"medcc/internal/workflow"
)

// Inputs are made by the benchmark from --seed and handed to the program
// only as files (the served library) and request bodies.

// algorithms is the serving mix: the paper's heuristic and its baseline.
var algorithms = []string{"critical-greedy", "gain3"}

// libWorkflow and libCatalog are one library entry in the three forms
// the benchmark needs: the native JSON the server loads, the decoded
// value the traced run feeds to layer calls, and (catalogs) the oracle's
// own view.
type libWorkflow struct {
	name string
	json []byte
	w    *workflow.Workflow
}

type libCatalog struct {
	name string
	json []byte
	cat  cloud.Catalog
	o    []vmType
}

// library is the served (workflow, catalog) library. "example" and
// "paper" are the server's built-in entries (the paper's §V-B instance
// and Table I catalog); the rest are written to files and loaded with
// -workflow/-catalog.
type library struct {
	wfs  []libWorkflow
	cats []libCatalog
}

// buildLibrary generates the library: random DAGs of three sizes, a
// Montage-shaped workflow and a pipeline, over the paper's catalog and
// two generated ones.
func buildLibrary(seed int64) (*library, error) {
	lib := &library{}
	exW, _ := workflow.PaperExample()
	if err := lib.addWorkflow("example", exW); err != nil {
		return nil, err
	}
	rng := func(k int64) *rand.Rand { return rand.New(rand.NewSource(seed*1_000_003 + k)) }
	randoms := []struct {
		name   string
		m, e   int
		stream int64
	}{{"rand100", 100, 600, 1}, {"rand500", 500, 3000, 2}, {"rand2000", 2000, 10000, 3}}
	for _, r := range randoms {
		w, err := gen.Random(rng(r.stream), gen.Params{
			Modules: r.m, Edges: r.e, WorkloadMin: 100, WorkloadMax: 1000,
			DataSizeMax: 10, AddEntryExit: true,
		})
		if err != nil {
			return nil, err
		}
		if err := lib.addWorkflow(r.name, w); err != nil {
			return nil, err
		}
	}
	if err := lib.addWorkflow("montage", gen.MontageLike(rng(4), 60)); err != nil {
		return nil, err
	}
	if err := lib.addWorkflow("pipeline", gen.Pipeline(rng(5), 300, 100, 1000)); err != nil {
		return nil, err
	}
	for _, c := range []struct {
		name string
		cat  cloud.Catalog
	}{
		{"paper", cloud.PaperExampleCatalog()},
		{"vt5", cloud.DiminishingCatalog(5, 3, 1, gen.SimulationGamma)},
		{"vt9", cloud.DiminishingCatalog(9, 3, 1, gen.SimulationGamma)},
	} {
		lc, err := newLibCatalog(c.name, c.cat)
		if err != nil {
			return nil, err
		}
		lib.cats = append(lib.cats, lc)
	}
	return lib, nil
}

func (lib *library) addWorkflow(name string, w *workflow.Workflow) error {
	b, err := w.MarshalJSON()
	if err != nil {
		return fmt.Errorf("library %s: %w", name, err)
	}
	lib.wfs = append(lib.wfs, libWorkflow{name: name, json: b, w: w})
	return nil
}

func newLibCatalog(name string, cat cloud.Catalog) (libCatalog, error) {
	b, err := json.Marshal(cat)
	if err != nil {
		return libCatalog{}, err
	}
	var o []vmType
	if err := json.Unmarshal(b, &o); err != nil {
		return libCatalog{}, err
	}
	return libCatalog{name: name, json: b, cat: cat, o: o}, nil
}

// serverArgs writes the non-built-in entries under dir and returns the
// medcc-serve flags that load them, and the same sources as an
// in-process serve.Library.
func (lib *library) serverArgs(dir string) ([]string, serve.Library, error) {
	var args []string
	sl := serve.Library{Catalogs: map[string]string{}, Workflows: map[string]string{}}
	write := func(kind, name string, b []byte) error {
		p := filepath.Join(dir, kind+"-"+name+".json")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			return err
		}
		args = append(args, "-"+kind, name+"="+p)
		if kind == "workflow" {
			sl.Workflows[name] = p
		} else {
			sl.Catalogs[name] = p
		}
		return nil
	}
	for _, w := range lib.wfs {
		if w.name == "example" {
			continue
		}
		if err := write("workflow", w.name, w.json); err != nil {
			return nil, sl, err
		}
	}
	for _, c := range lib.cats {
		if c.name == "paper" {
			continue
		}
		if err := write("catalog", c.name, c.json); err != nil {
			return nil, sl, err
		}
	}
	return args, sl, nil
}

// triple is one cacheable key: a library pair under one algorithm.
type triple struct {
	wf, cat int
	alg     string
}

// triples lists every key in a fixed order: workflow, catalog, algorithm.
func (lib *library) triples() []triple {
	var out []triple
	for wi := range lib.wfs {
		for ci := range lib.cats {
			for _, a := range algorithms {
				out = append(out, triple{wi, ci, a})
			}
		}
	}
	return out
}

// op is one prepared request: what is sent, and what the answer must
// satisfy.
type op struct {
	path string // request URI: /schedule?...
	body []byte
	req  []byte // the whole request as the load generator sends it

	class    int // request class: the library key (serve-hit), or the size and body format (serve-solve)
	frac     float64
	alg      string
	simulate bool
	boot     float64
	inst     *instance

	// For serve-hit: the library key. For serve-solve: the inline
	// instance in decoded form, its native JSON, and the body format.
	key triple
	// medcc:lint-ignore epochguard — a generated instance, never rebuilt after the op is made
	w         *workflow.Workflow
	cat       cloud.Catalog
	wfJSON    []byte
	container bool
}

func fracString(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// hitZipfS is the key skew of serve-hit: the popularity of the k-th most
// requested key falls as 1/(1+k)^1.1.
const hitZipfS = 1.1

// hitOps builds the serve-hit request sequence: query-only requests over
// the library keys, drawn zipf-skewed, at dyadic k/8 budget fractions —
// the grid every staircase starts from, so each one is a bit-exact hit.
// Which key is the most popular is fixed (a permutation with its own
// constant seed), so seeds change the draws, not the traffic shape.
func hitOps(lib *library, seed int64, n int) ([]*op, []*op, error) {
	keys := lib.triples()
	class := map[triple]int{}
	for i, k := range keys {
		class[k] = i
	}
	rand.New(rand.NewSource(7)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	insts := map[[2]int]*instance{}
	distinct := map[string]*op{}
	var order []*op
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, hitZipfS, 1, uint64(len(keys)-1))
	seq := make([]*op, n)
	for i := range seq {
		k := keys[zipf.Uint64()]
		num := rng.Intn(9)
		path := fmt.Sprintf("/schedule?workflow=%s&catalog=%s&algorithm=%s&budget_fraction=%s",
			url.QueryEscape(lib.wfs[k.wf].name), url.QueryEscape(lib.cats[k.cat].name), k.alg, fracString(float64(num)/8))
		o, ok := distinct[path]
		if !ok {
			pk := [2]int{k.wf, k.cat}
			in, ok := insts[pk]
			if !ok {
				var err error
				if in, err = newInstance(lib.wfs[k.wf].json, lib.cats[k.cat].o); err != nil {
					return nil, nil, err
				}
				insts[pk] = in
			}
			o = &op{path: path, class: class[k], frac: float64(num) / 8, alg: k.alg, inst: in, key: k,
				w: lib.wfs[k.wf].w, cat: lib.cats[k.cat].cat, wfJSON: lib.wfs[k.wf].json}
			distinct[path] = o
			order = append(order, o)
		}
		seq[i] = o
	}
	return seq, order, nil
}

// solveSizes are the inline instance sizes of serve-solve: the paper's 20
// problem sizes (m, |E|, n) plus three up to 1.6 times its largest. Much
// larger instances made a few requests tens of milliseconds long, and
// with two senders the queue behind them set the median latency.
func solveSizes() []gen.ProblemSize {
	return append(gen.PaperProblemSizes(),
		gen.ProblemSize{M: 120, E: 2800, N: 9},
		gen.ProblemSize{M: 140, E: 3300, N: 9},
		gen.ProblemSize{M: 160, E: 3800, N: 9})
}

// solvePerSize is the number of requests per size in one round.
const solvePerSize = 16

// solveBootTime is the VM boot latency (hours) of half the simulated
// serve-solve requests; the other half boot instantly.
const solveBootTime = 0.25

// solveOps builds the serve-solve request round: inline instances the
// cache can never serve, sixteen per size of solveSizes. Within a size,
// request k is a binary container (budget and algorithm in the query)
// for even k and a JSON envelope for odd k; its algorithm is
// critical-greedy for k mod 4 < 2 and gain3 otherwise; requests 7 and
// 15 ask for a simulated trace, 15 with a boot time. Budget fractions
// are uniform in [0, 1], stratified so each size draws one from each
// sixteenth of the range: how much budget a round offers the solvers,
// and so its work, does not swing with the seed.
func solveOps(seed int64) ([]*op, error) {
	sizes := solveSizes()
	ops := make([]*op, 0, len(sizes)*solvePerSize)
	var rb encoding.RecordBuilder
	for si, size := range sizes {
		strata := rand.New(rand.NewSource(seed*1_000_003 + int64(si))).Perm(solvePerSize)
		for k := 0; k < solvePerSize; k++ {
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(si*solvePerSize+k) + 1000))
			w, cat, err := gen.Instance(rng, size)
			if err != nil {
				return nil, err
			}
			o := &op{class: 2*si + k%2, frac: (float64(strata[k]) + rng.Float64()) / solvePerSize, alg: algorithms[(k/2)%2],
				container: k%2 == 0, simulate: k%8 == 7}
			if k == 15 {
				o.boot = solveBootTime
			}
			if err := o.inline(w, cat, &rb); err != nil {
				return nil, err
			}
			ops = append(ops, o)
		}
	}
	return ops, nil
}

// inline attaches an inline instance to o and encodes its request.
func (o *op) inline(w *workflow.Workflow, cat cloud.Catalog, rb *encoding.RecordBuilder) error {
	lc, err := newLibCatalog("inline", cat)
	if err != nil {
		return err
	}
	wj, err := w.MarshalJSON()
	if err != nil {
		return err
	}
	if o.inst, err = newInstance(wj, lc.o); err != nil {
		return err
	}
	o.w, o.cat, o.wfJSON = w, cat, wj
	if o.container {
		rb.Begin()
		if err := rb.Workflow(w); err != nil {
			return err
		}
		if err := rb.Catalog(cat); err != nil {
			return err
		}
		if o.body, err = rb.AppendRecord(encoding.AppendHeader(nil, 1), false); err != nil {
			return err
		}
		o.path = "/schedule?algorithm=" + o.alg + "&budget_fraction=" + fracString(o.frac)
		if o.simulate {
			o.path += "&simulate=true&boot_time=" + fracString(o.boot)
		}
		return nil
	}
	env := struct {
		Workflow       json.RawMessage `json:"workflow"`
		Catalog        json.RawMessage `json:"catalog"`
		BudgetFraction float64         `json:"budget_fraction"`
		Algorithm      string          `json:"algorithm"`
		Simulate       bool            `json:"simulate,omitempty"`
		BootTime       float64         `json:"boot_time,omitempty"`
	}{wj, lc.json, o.frac, o.alg, o.simulate, o.boot}
	o.body, err = json.Marshal(env)
	o.path = "/schedule"
	return err
}

// solveSeq orders a seeded permutation of the round into a sequence of
// whole rounds.
func solveSeq(ops []*op, seed int64, rounds int) []*op {
	rng := rand.New(rand.NewSource(seed + 17))
	seq := make([]*op, 0, rounds*len(ops))
	for r := 0; r < rounds; r++ {
		for _, k := range rng.Perm(len(ops)) {
			seq = append(seq, ops[k])
		}
	}
	return seq
}
