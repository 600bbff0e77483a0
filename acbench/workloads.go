package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"acstab/internal/analysis"
	"acstab/internal/circuits"
	"acstab/internal/farm"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/sos"
	"acstab/internal/tool"
)

// pair is one complex pole pair (or one reported peak) as natural
// frequency and damping ratio.
type pair struct{ fn, zeta float64 }

// job is one pool entry: the netlist text the program receives and, on
// the batch workload, the design-variable variants submitted with it.
// exact holds the reference pole pairs of each analysis the job produces
// (one per variant, or one).
type job struct {
	family   string
	text     string
	node     string // single-node probe; "" probes all nodes
	variants []farm.Variant
	exact    [][]pair
}

// analyses is the number of analyses one run of the job performs.
func (j *job) analyses() int {
	if len(j.variants) > 0 {
		return len(j.variants)
	}
	return 1
}

// variantVars returns the design-variable overrides of analysis i (nil
// outside the batch workload).
func (j *job) variantVars(i int) map[string]float64 {
	if len(j.variants) == 0 {
		return nil
	}
	return j.variants[i].Variables
}

// workload is one seeded input pool and the way it is driven. The why of
// each workload is in BENCHMARK.json and README.md.
type workload struct {
	name string
	// cycle is the family period of the pool: timed chunks hold whole
	// cycles, so every chunk runs the same mix of circuits.
	cycle int
	// size is the pool length (entries; batches on corner-batch).
	size int
	// warm is the number of pool entries in the warm-up pass (0 = all).
	warm int
	// batch marks the wire workload: entries are POST /batch requests to
	// an in-process farm worker instead of in-process CLI analyses.
	batch bool
	gen   func(rng *rand.Rand, n int) ([]job, error)
}

var workloads = []*workload{
	// Per-run fixed costs of tiny systems and the full-column sweep.
	{name: "paper-single", cycle: 4, size: 64, gen: genSingle},
	// The paper's headline flow: OP, sweep and stab each take a share.
	{name: "paper-all-nodes", cycle: 3, size: 66, gen: genAllNodes},
	// Sweep-dominated: solver-path and grid changes show in full.
	{name: "resonator-field", cycle: 1, size: 64, warm: 2, gen: genField},
	// Cache hits: only sweep, stab, report and wire costs remain.
	{name: "corner-batch", cycle: 1, size: 4, batch: true, gen: genCorners},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// spread is the relative half-width of the per-element value perturbation
// that makes each pool entry a distinct netlist with the same topology.
const spread = 0.05

// logUniform draws from [lo, hi] uniformly in log frequency.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, rng.Float64())
}

// netlistText flattens c, scales every passive and transconductance
// value and every MOSFET width by an independent factor in
// [1-spread, 1+spread], and renders the result as netlist text with the
// .nodeset hints that netlist.Format drops (the transistor op-amp needs
// them to reach its intended operating point).
func netlistText(c *netlist.Circuit, rng *rand.Rand) (string, error) {
	flat, err := netlist.Flatten(c)
	if err != nil {
		return "", err
	}
	scale := func() float64 { return 1 + spread*(2*rng.Float64()-1) }
	for _, e := range flat.Elems {
		switch e.Type {
		case netlist.Resistor, netlist.Capacitor, netlist.Inductor, netlist.VCCS, netlist.VCVS:
			e.Value *= scale()
		case netlist.MOSFET:
			if w, ok := e.Params["w"]; ok {
				e.Params["w"] = w * scale()
			}
		}
	}
	text := netlist.Format(flat)
	if len(c.NodeSet) == 0 {
		return text, nil
	}
	nodes := make([]string, 0, len(c.NodeSet))
	for n := range c.NodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	var sb strings.Builder
	sb.WriteString(".nodeset")
	for _, n := range nodes {
		fmt.Fprintf(&sb, " v(%s)=%g", n, c.NodeSet[n])
	}
	sb.WriteString("\n.end\n")
	return strings.TrimSuffix(text, ".end\n") + sb.String(), nil
}

// genSingle interleaves three Table 1 tanks with one Fig. 4 buffer, so the
// buffer is a quarter of the pool: the latency median falls inside the
// tank mode and p90 inside the buffer mode, never in the gap between.
func genSingle(rng *rand.Rand, n int) ([]job, error) {
	var zetas []float64
	for _, r := range sos.PaperTable1() {
		if r.Zeta > 0.05 && r.Zeta < 1 {
			zetas = append(zetas, r.Zeta)
		}
	}
	pool := make([]job, 0, n)
	tanks := 0
	for i := 0; i < n; i++ {
		var c *netlist.Circuit
		j := job{}
		if i%4 == 3 {
			c, j.family, j.node = circuits.OpAmpBuffer(circuits.OpAmpDefaults()), "buffer", "output"
		} else {
			z := zetas[tanks%len(zetas)]
			tanks++
			c, j.family, j.node = circuits.SecondOrder(z, logUniform(rng, 1e4, 1e8)), "tank", "t"
		}
		text, err := netlistText(c, rng)
		if err != nil {
			return nil, err
		}
		j.text = text
		pool = append(pool, j)
	}
	return pool, nil
}

// genAllNodes cycles the Table 2 circuit, the Fig. 5 bias cell and the
// transistor op-amp in equal thirds: their costs are distinct, and thirds
// put the latency median in the middle mode and p90 in the top one.
func genAllNodes(rng *rand.Rand, n int) ([]job, error) {
	families := []struct {
		name  string
		build func() *netlist.Circuit
	}{
		{"full", circuits.FullCircuit},
		{"bias", func() *netlist.Circuit { return circuits.BiasCircuit(circuits.BiasDefaults()) }},
		{"transistor", circuits.TransistorOpAmp},
	}
	pool := make([]job, 0, n)
	for i := 0; i < n; i++ {
		f := families[i%len(families)]
		text, err := netlistText(f.build(), rng)
		if err != nil {
			return nil, err
		}
		pool = append(pool, job{family: f.name, text: text})
	}
	return pool, nil
}

// fieldLoops is the loop count of the resonator-field workload: 64
// unknowns, the largest size the default solver selection keeps dense.
const fieldLoops = 32

func genField(rng *rand.Rand, n int) ([]job, error) {
	pool := make([]job, 0, n)
	for i := 0; i < n; i++ {
		pool = append(pool, job{family: "field", text: fieldText(rng, fieldLoops)})
	}
	return pool, nil
}

// fieldText builds k independent two-pole gm loops with natural
// frequencies log-uniform over 1e4..1e8 Hz (a decade inside the default
// sweep on each side, so every peak is interior) and damping ratios in
// [0.12, 0.45]: below 0.12 the default grid misses some peaks, and a
// workload must be one the program gets right. Each loop is the
// twoPoleLoop topology of the circuits package: closed-loop poles
// (1+sRC)^2 + K = 0 with K = (gm R)^2.
func fieldText(rng *rand.Rand, k int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "resonator field, %d loops\n", k)
	const r = 10e3
	for i := 0; i < k; i++ {
		fn := logUniform(rng, 1e4, 1e8)
		zeta := 0.12 + (0.45-0.12)*rng.Float64()
		kk := 1/(zeta*zeta) - 1
		cap := math.Sqrt(1+kk) / (2 * math.Pi * fn) / r
		gm := math.Sqrt(kk) / r
		a, b := fmt.Sprintf("ra%03d", i), fmt.Sprintf("rb%03d", i)
		fmt.Fprintf(&sb, "ra%03d %s 0 %g\nca%03d %s 0 %g\n", i, a, r, i, a, cap)
		fmt.Fprintf(&sb, "rb%03d %s 0 %g\ncb%03d %s 0 %g\n", i, b, r, i, b, cap)
		fmt.Fprintf(&sb, "gf%03d 0 %s %s 0 %g\ngr%03d %s 0 %s 0 %g\n", i, b, a, gm, i, a, b, gm)
	}
	sb.WriteString(".end\n")
	return sb.String()
}

// cornerParams are the Table 2 elements the corner netlist exposes as
// .param design variables: the paper's compensation knobs.
var cornerParams = []string{"c1", "rzero", "cload"}

// cornerVariants is the variant count of one batch request.
const cornerVariants = 16

// genCorners builds n batch requests, each a perturbed Table 2 netlist
// whose cornerParams are design variables, with 16 seeded variants that
// move each variable within ±15% of the netlist's own value. n·16 must not
// exceed the worker's default cache capacity, so every warm request hits.
func genCorners(rng *rand.Rand, n int) ([]job, error) {
	if n*cornerVariants > farm.DefaultCacheEntries {
		return nil, fmt.Errorf("corner pool of %d batches overflows the %d-entry compile cache", n, farm.DefaultCacheEntries)
	}
	pool := make([]job, 0, n)
	for i := 0; i < n; i++ {
		text, err := netlistText(circuits.FullCircuit(), rng)
		if err != nil {
			return nil, err
		}
		text, nominal, err := withParams(text, cornerParams)
		if err != nil {
			return nil, err
		}
		j := job{family: "corner", text: text}
		for v := 0; v < cornerVariants; v++ {
			vars := map[string]float64{}
			for _, p := range cornerParams {
				vars[p] = nominal[p] * (1 + 0.15*(2*rng.Float64()-1))
			}
			j.variants = append(j.variants, farm.Variant{Label: fmt.Sprintf("v%02d", v), Variables: vars})
		}
		pool = append(pool, j)
	}
	return pool, nil
}

// withParams turns the value of each named element into a design variable
// of the same name: the element card's value becomes {name} and a .param
// line after the title carries the original value.
func withParams(text string, names []string) (string, map[string]float64, error) {
	lines := strings.Split(text, "\n")
	nominal := map[string]float64{}
	for i, ln := range lines[1:] {
		f := strings.Fields(ln)
		if len(f) < 4 {
			continue
		}
		for _, name := range names {
			if f[0] != name {
				continue
			}
			var v float64
			if _, err := fmt.Sscan(f[len(f)-1], &v); err != nil {
				return "", nil, fmt.Errorf("element %s: %w", name, err)
			}
			nominal[name] = v
			f[len(f)-1] = "{" + name + "}"
			lines[i+1] = strings.Join(f, " ")
		}
	}
	decl := ".param"
	for _, name := range names {
		v, ok := nominal[name]
		if !ok {
			return "", nil, fmt.Errorf("netlist has no element %s", name)
		}
		decl += fmt.Sprintf(" %s=%g", name, v)
	}
	out := append([]string{lines[0], decl}, lines[1:]...)
	return strings.Join(out, "\n"), nominal, nil
}

// buildPool generates a workload's pool from the seed and computes every
// analysis's reference pole pairs. The reference work is not part of any
// reported time.
func buildPool(ctx context.Context, w *workload, seed int64, size int) ([]job, error) {
	rng := rand.New(rand.NewSource(seedFor(seed, w.name)))
	pool, err := w.gen(rng, size)
	if err != nil {
		return nil, err
	}
	for i := range pool {
		j := &pool[i]
		for a := 0; a < j.analyses(); a++ {
			ex, err := exactPairs(ctx, j.text, j.variantVars(a))
			if err != nil {
				return nil, fmt.Errorf("%s entry %d: reference poles: %w", w.name, i, err)
			}
			j.exact = append(j.exact, ex)
		}
	}
	return pool, nil
}

// seedFor derives a workload's generator seed, so each workload's inputs
// depend only on the seed and its own name.
func seedFor(seed int64, name string) int64 {
	h := uint64(seed) * 0x9e3779b97f4a7c15
	for _, c := range []byte(name) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return int64(h >> 1)
}

// exactPairs returns the in-band complex pole pairs of the circuit
// linearized at its operating point: the eigenvalues of the MNA pencil
// over the default sweep range.
func exactPairs(ctx context.Context, text string, vars map[string]float64) ([]pair, error) {
	ckt, err := netlist.Parse(text)
	if err != nil {
		return nil, err
	}
	for k, v := range vars {
		ckt.Params[k] = v
	}
	flat, err := netlist.Flatten(ckt)
	if err != nil {
		return nil, err
	}
	sys, err := mna.Compile(flat)
	if err != nil {
		return nil, err
	}
	sim := analysis.New(sys)
	op, err := sim.OP(ctx)
	if err != nil {
		return nil, err
	}
	o := tool.DefaultOptions()
	poles, err := sim.Poles(ctx, op, o.FStart, o.FStop)
	if err != nil {
		return nil, err
	}
	var out []pair
	for _, p := range analysis.ComplexPolePairs(poles, 1e-6) {
		out = append(out, pair{p.FreqHz, p.Zeta})
	}
	return out, nil
}
