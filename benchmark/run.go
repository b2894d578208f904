package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Phase indices; they also salt the plan seeds.
const (
	phWarmup = iota
	phClosed
	phLo
	phHi
)

const setUpRepeats = 3 // set-ups per timed run; setup_s is their median

// phaseSummary is one phase reduced to what is reported.
type phaseSummary struct {
	name                  string
	attempted, ok, failed int
	sloOK                 int // correct replies within the SLO of their t0
	win                   windowStat
	latP99Ms              float64 // generator lateness (open loop)
	cacheHits, cacheMiss  int64
	gwRequests, gwErrors  int64
	elapsedNs             int64
	slotAllocs            int64
}

// runResult is one run of one workload.
type runResult struct {
	workload  string
	seed      int64
	seconds   int
	traced    bool
	setups    []float64
	phases    []*phaseSummary
	metrics   map[string]float64 // what the last line reports
	attempted int
	failed    int
	problems  []string // anything that makes the run incorrect
	warnings  []string // generator audit
	traceFile string
}

func (r *runResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// scrape reads the node's registry the way an operator would and sums
// one gateway counter family over the stream adapter.
func (n *node) scrape() (requests, errors int64, took time.Duration, err error) {
	var buf bytes.Buffer
	t0 := time.Now()
	if err = n.cl.Metrics().WritePrometheus(&buf); err != nil {
		return 0, 0, 0, err
	}
	took = time.Since(t0)
	const label = `adapter="stream"`
	for _, line := range strings.Split(buf.String(), "\n") {
		var dst *int64
		switch {
		case strings.HasPrefix(line, "clipper_gateway_requests_total{"):
			dst = &requests
		case strings.HasPrefix(line, "clipper_gateway_errors_total{"):
			dst = &errors
		default:
			continue
		}
		if !strings.Contains(line, label) {
			continue
		}
		v, perr := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if perr != nil {
			return 0, 0, 0, fmt.Errorf("scrape: %q: %w", line, perr)
		}
		*dst += int64(v)
	}
	return requests, errors, took, nil
}

// makePhase generates a phase's plans from the seed, before it starts.
func (n *node) makePhase(idx int, name string, durNs int64, rate float64) *phaseSpec {
	spec := &phaseSpec{name: name, durNs: durNs, rate: rate, window: n.w.window}
	for c := 0; c < numConns; c++ {
		seed := subSeed(n.seed, idx, c)
		p := genPlan(n.w, seed, closedPlanLen, 0)
		if rate > 0 {
			p = openPlan(n.w, seed, rate/numConns, durNs)
		}
		spec.plans = append(spec.plans, p)
	}
	return spec
}

// measure runs one phase and checks it: every reply against the oracle,
// the gateway's own counts against the generator's.
func (n *node) measure(r *runResult, spec *phaseSpec) (*phaseSummary, *phaseResult) {
	runtime.GC() // start every phase from a collected heap
	req0, err0, _, serr := n.scrape()
	if serr != nil {
		r.problem("%s: %v", spec.name, serr)
	}
	var h0, m0 int64
	if c := n.cl.Cache(); c != nil {
		h0, m0 = c.Stats()
	}
	res := n.runPhase(spec)
	s := &phaseSummary{name: spec.name, elapsedNs: res.elapsedNs, slotAllocs: res.slotAllocs}
	if c := n.cl.Cache(); c != nil {
		h1, m1 := c.Stats()
		s.cacheHits, s.cacheMiss = h1-h0, m1-m0
	}
	req1, err1, _, serr := n.scrape()
	if serr != nil {
		r.problem("%s: %v", spec.name, serr)
	}
	s.gwRequests, s.gwErrors = req1-req0, err1-err0

	ops := res.all()
	var late []float64
	wrong, serverFailed := 0, 0
	for i := range ops {
		o := &ops[i]
		s.attempted++
		switch o.status {
		case statusOK:
			s.ok++
			if o.lat <= sloNs {
				s.sloOK++
			}
		case statusWrong:
			wrong++
		case statusFailed:
			serverFailed++
		}
		if spec.rate > 0 {
			late = append(late, float64(o.late)/1e6)
		}
	}
	s.failed = s.attempted - s.ok
	if wrong > 0 {
		r.problem("%s: %d replies differ from the offline label", spec.name, wrong)
	}
	if s.failed > wrong {
		r.problem("%s: %d ops failed or got no reply", spec.name, s.failed-wrong)
	}
	if s.gwRequests != int64(s.attempted) || s.gwErrors != int64(serverFailed) {
		r.problem("%s: gateway counted %d requests / %d errors, generator %d / %d",
			spec.name, s.gwRequests, s.gwErrors, s.attempted, serverFailed)
	}
	if len(late) > 0 {
		sort.Float64s(late)
		if v, err := percentile(late, 0.99); err == nil {
			s.latP99Ms = v
		}
	}
	win, err := reduceWindows(ops, spec.durNs, res.cpuWinNs)
	if err != nil {
		r.problem("%s: %v", spec.name, err)
	}
	s.win = win
	r.phases = append(r.phases, s)
	r.attempted += s.attempted
	r.failed += s.failed
	return s, res
}

// runTimed is the untraced run: set-up (setUps times, for its median),
// then closed, lo and hi, each a third of seconds.
func runTimed(w *workload, seed int64, seconds, setUps int) *runResult {
	r := &runResult{workload: w.name, seed: seed, seconds: seconds, metrics: map[string]float64{}}
	var n *node
	for i := 0; i < setUps; i++ {
		if n != nil {
			n.tearDown()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if n, err = setUp(w, seed, nil); err != nil {
			r.problem("set-up: %v", err)
			return r
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	defer n.tearDown()

	durNs := int64(seconds) * int64(time.Second) / 3
	closed, _ := n.measure(r, n.makePhase(phClosed, "closed", durNs, 0))
	lo, _ := n.measure(r, n.makePhase(phLo, "lo", durNs, w.loRate))
	hi, _ := n.measure(r, n.makePhase(phHi, "hi", durNs, w.hiRate))

	m := r.metrics
	m["setup_s"] = median(r.setups)
	m["max_qps"] = median(closed.win.qps)
	m["p50_ms"] = median(lo.win.p50)
	m["p99_ms"] = median(lo.win.p99)
	m["hi_p99_ms"] = median(hi.win.p99)
	// The one value taken over the whole phase: every stall counts.
	if hi.attempted > 0 {
		m["hi_slo_ok_frac"] = float64(hi.sloOK) / float64(hi.attempted)
	}
	r.audit(w, m["max_qps"])
	r.checkNames(endToEnd)
	return r
}

// checkNames holds the reported metrics to the declared list: the driver
// wants every one of them and nothing else.
func (r *runResult) checkNames(defs []metricDef) {
	if len(r.metrics) != len(defs) {
		r.problem("%d metrics reported, %d declared", len(r.metrics), len(defs))
	}
	for _, d := range defs {
		if _, ok := r.metrics[d.name]; !ok {
			r.problem("metric %s not reported", d.name)
		}
	}
}

// audit records what would make the latency numbers untrustworthy.
func (r *runResult) audit(w *workload, maxQPS float64) {
	for _, p := range r.phases {
		if p.latP99Ms > 1 {
			r.warnings = append(r.warnings, fmt.Sprintf(
				"%s: generator lateness p99 %.3f ms exceeds 1 ms", p.name, p.latP99Ms))
		}
		if p.slotAllocs > 0 {
			r.warnings = append(r.warnings, fmt.Sprintf(
				"%s: %d callback slots made on the send path (more than %d ops outstanding)",
				p.name, p.slotAllocs, openSlots))
		}
	}
	if maxQPS > 0 && w.hiRate > 0.85*maxQPS {
		r.warnings = append(r.warnings, fmt.Sprintf(
			"hi_rate %.0f exceeds 0.85 x max_qps %.0f: hi runs past the knee", w.hiRate, maxQPS))
	}
}

// print writes the human-readable report of one run.
func (r *runResult) print() {
	mode := "timed"
	if r.traced {
		mode = "traced"
	}
	fmt.Printf("== %s  seed=%d  seconds=%d  %s\n", r.workload, r.seed, r.seconds, mode)
	fmt.Printf("   generator: GOMAXPROCS=%d nproc=%d connections=%d pacers=%d (one per connection)\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), numConns, numConns)
	if len(r.setups) > 0 {
		fmt.Printf("   set-ups (s): %s\n", fmtFloats(r.setups, 4))
	}
	for _, p := range r.phases {
		fmt.Printf("   phase %-6s attempted=%d ok=%d within_slo=%d failed=%d  elapsed=%.2fs  cache hit/miss=%d/%d  gen.late_p99_ms=%.4f\n",
			p.name, p.attempted, p.ok, p.sloOK, p.failed, float64(p.elapsedNs)/1e9, p.cacheHits, p.cacheMiss, p.latP99Ms)
		if len(p.win.p99) > 0 {
			fmt.Printf("      %d windows of %.1f s: qps %s  cpu_us/op %s\n", len(p.win.qps),
				float64(p.elapsedNs)/1e9/float64(len(p.win.qps)), fmtSpread(p.win.qps, 0), fmtSpread(p.win.cpuUs, 2))
			fmt.Printf("      %d groups of %d predicts (a p99 has %d beyond it): p50_ms %s  p99_ms %s\n", len(p.win.p99),
				p.win.samples, p.win.samples-1-int(0.99*float64(p.win.samples)), fmtSpread(p.win.p50, 3), fmtSpread(p.win.p99, 3))
		}
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("   %-34s %14.4f %s\n", name, r.metrics[name], unitOf(name))
	}
	for _, w := range r.warnings {
		fmt.Printf("   WARNING %s\n", w)
	}
	for _, p := range r.problems {
		fmt.Printf("   INCORRECT %s\n", p)
	}
	if r.traceFile != "" {
		fmt.Printf("   trace written to %s\n", r.traceFile)
	}
}

// fmtSpread prints the median of vs between its extremes and quartiles.
func fmtSpread(vs []float64, prec int) string {
	if len(vs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(vs)
	return "median " + strconv.FormatFloat(median(vs), 'f', prec, 64) + " " +
		fmtFloats([]float64{slices.Min(vs), q1, q3, slices.Max(vs)}, prec) + " (min q1 q3 max)"
}

func fmtFloats(vs []float64, prec int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'f', prec, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.name == name {
			return d.unit
		}
	}
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
