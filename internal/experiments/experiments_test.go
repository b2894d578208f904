package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"clipper/internal/batching"
	"clipper/internal/dataset"
	"clipper/internal/frameworks"
	"clipper/internal/models"
)

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{
		"ablation-aimd", "ablation-cache", "ablation-eta", "cache16",
		"extension-cascade", "fig10", "fig11", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig8", "fig9", "table1", "table2",
	}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
	if _, err := Run("nope", Quick); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestResultString(t *testing.T) {
	r := Result{ID: "x", Title: "T", Lines: []string{"a", "b"}}
	s := r.String()
	if !strings.Contains(s, "=== x: T ===") || !strings.Contains(s, "a\nb\n") {
		t.Fatalf("render:\n%s", s)
	}
}

func TestTable1(t *testing.T) {
	res := quick(t, "table1")
	if len(res.Lines) != 5 { // header + 4 datasets
		t.Fatalf("lines = %v", res.Lines)
	}
	if !strings.Contains(res.Lines[1], "MNIST-like") {
		t.Fatalf("row1 = %q", res.Lines[1])
	}
}

func TestTable2(t *testing.T) {
	res := quick(t, "table2")
	if len(res.Lines) != 6 { // header + 5 models
		t.Fatalf("lines = %v", res.Lines)
	}
	for _, name := range []string{"VGG", "GoogLeNet", "ResNet", "CaffeNet", "Inception"} {
		if !strings.Contains(strings.Join(res.Lines, "\n"), name) {
			t.Fatalf("missing %s in:\n%s", name, res)
		}
	}
}

func TestFig3ShapeAndSLORatio(t *testing.T) {
	res := quick(t, "fig3")
	body := strings.Join(res.Lines, "\n")
	for _, name := range []string{"sklearn-linear-svm", "sklearn-kernel-svm", "noop", "pyspark-linear-svm"} {
		if !strings.Contains(body, name) {
			t.Fatalf("missing container %s:\n%s", name, body)
		}
	}
	// The paper's 241x claim, relaxed to >=100x.
	if !strings.Contains(body, "max-batch ratio") {
		t.Fatalf("missing ratio line:\n%s", body)
	}
	ratioLine := res.Lines[len(res.Lines)-1]
	fields := strings.Fields(ratioLine)
	for _, f := range fields {
		if strings.HasSuffix(f, "x") && f != "241x)" {
			n, err := strconv.Atoi(strings.TrimSuffix(f, "x"))
			if err == nil {
				if n < 100 {
					t.Fatalf("linear/kernel ratio %d < 100", n)
				}
				return
			}
		}
	}
	t.Fatalf("could not parse ratio from %q", ratioLine)
}

func TestFig7EnsembleBeatsOrMatchesSingle(t *testing.T) {
	ds := cifarStandin(1500)
	train, test := ds.Split(0.8, 5)
	ens := models.TrainEnsemble(train)
	stats := ensembleStats(ens, test)
	// Core Figure 7 claims: the confident (5-agree) set has much lower
	// error than the overall ensemble, and the ensemble is competitive
	// with the best single model.
	if stats.Agree5ConfErr >= stats.EnsembleErr {
		t.Fatalf("5-agree confident err %.3f !< ensemble err %.3f",
			stats.Agree5ConfErr, stats.EnsembleErr)
	}
	if stats.Agree5UnsureErr <= stats.Agree5ConfErr {
		t.Fatalf("unsure err %.3f !> confident err %.3f",
			stats.Agree5UnsureErr, stats.Agree5ConfErr)
	}
	if stats.EnsembleErr > stats.BestSingleErr+0.03 {
		t.Fatalf("ensemble err %.3f much worse than best single %.3f",
			stats.EnsembleErr, stats.BestSingleErr)
	}
	if stats.Agree4Frac <= stats.Agree5Frac {
		t.Fatalf("4-agree fraction %.3f should exceed 5-agree %.3f",
			stats.Agree4Frac, stats.Agree5Frac)
	}
}

func TestFig8PoliciesTrackBestModel(t *testing.T) {
	res := quick(t, "fig8")
	// Parse cumulative errors.
	errs := map[string]float64{}
	for _, line := range res.Lines[1:] {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, perr := strconv.ParseFloat(fields[len(fields)-1], 64)
		if perr != nil {
			continue
		}
		name := fields[0]
		if name == "model" {
			name = fields[0] + fields[1]
		}
		errs[name] = v
	}
	exp3, ok3 := errs["Exp3"]
	exp4, ok4 := errs["Exp4"]
	if !ok3 || !ok4 {
		t.Fatalf("missing policies in:\n%s", res)
	}
	// The policies must beat the worst static model clearly and be
	// within reach of the best static arm (which also suffered the
	// degradation window).
	worst, best := 0.0, 1.0
	for name, v := range errs {
		if strings.HasPrefix(name, "model") {
			if v > worst {
				worst = v
			}
			if v < best {
				best = v
			}
		}
	}
	if exp4 >= worst {
		t.Fatalf("Exp4 err %.3f not better than worst static %.3f\n%s", exp4, worst, res)
	}
	if exp3 >= worst {
		t.Fatalf("Exp3 err %.3f not better than worst static %.3f\n%s", exp3, worst, res)
	}
	if exp4 > best+0.15 {
		t.Fatalf("Exp4 err %.3f far from best static %.3f\n%s", exp4, best, res)
	}
}

func TestFig9MitigationBoundsTail(t *testing.T) {
	ds := mnistStandin(900)
	train, test := ds.Split(0.8, 9)
	const k = 8
	blocked, err := runStragglerTrial(k, false, 80, train, test)
	if err != nil {
		t.Fatal(err)
	}
	mitigated, err := runStragglerTrial(k, true, 80, train, test)
	if err != nil {
		t.Fatal(err)
	}
	// Mitigation must cut P99 latency well below blocking mode's.
	if mitigated.P99Lat >= blocked.P99Lat {
		t.Fatalf("mitigated p99 %.1fms !< blocked p99 %.1fms",
			mitigated.P99Lat*1e3, blocked.P99Lat*1e3)
	}
	// Blocking mode never drops predictions.
	if blocked.MeanMissing != 0 {
		t.Fatalf("blocking mode dropped %.1f%% predictions", blocked.MeanMissing)
	}
	// Accuracy cost of mitigation is modest.
	if mitigated.Accuracy < blocked.Accuracy-0.15 {
		t.Fatalf("mitigation cost too much accuracy: %.3f vs %.3f",
			mitigated.Accuracy, blocked.Accuracy)
	}
}

func TestFig10PersonalizationLearns(t *testing.T) {
	res := quick(t, "fig10")
	// Parse the table: columns are feedback, static, no-dialect, policy.
	type row struct{ static, noDialect, policy float64 }
	var rows []row
	for _, line := range res.Lines[1:] {
		f := strings.Fields(line)
		if len(f) != 4 {
			continue
		}
		s, _ := strconv.ParseFloat(f[1], 64)
		n, _ := strconv.ParseFloat(f[2], 64)
		p, _ := strconv.ParseFloat(f[3], 64)
		rows = append(rows, row{s, n, p})
	}
	if len(rows) < 5 {
		t.Fatalf("too few rows:\n%s", res)
	}
	// Averages over the run: the dialect model beats the oblivious one
	// (the value of context), and the policy's late-run error beats its
	// early-run error (it learns from feedback).
	var avgStatic, avgNo float64
	for _, r := range rows {
		avgStatic += r.static
		avgNo += r.noDialect
	}
	avgStatic /= float64(len(rows))
	avgNo /= float64(len(rows))
	if avgStatic >= avgNo {
		t.Fatalf("dialect model err %.3f !< oblivious %.3f\n%s", avgStatic, avgNo, res)
	}
	early := (rows[0].policy + rows[1].policy) / 2
	n := len(rows)
	late := (rows[n-1].policy + rows[n-2].policy) / 2
	if late >= early+0.05 {
		t.Fatalf("policy did not improve with feedback: early %.3f late %.3f\n%s", early, late, res)
	}
}

func TestCacheFeedbackSpeedup(t *testing.T) {
	res := quick(t, "cache16")
	var speedup float64
	for _, line := range res.Lines {
		if strings.HasPrefix(line, "speedup:") {
			fields := strings.Fields(line)
			speedup, _ = strconv.ParseFloat(strings.TrimSuffix(fields[1], "x"), 64)
		}
	}
	if speedup < 1.3 {
		t.Fatalf("cache speedup %.2fx < 1.3x (paper: 1.6x)\n%s", speedup, res)
	}
}

func TestAblationAIMD(t *testing.T) {
	res := quick(t, "ablation-aimd")
	if len(res.Lines) != 3 {
		t.Fatalf("lines:\n%s", res)
	}
	// Gentler backoff should yield a higher steady-state cap.
	caps := make([]float64, 0, 3)
	for _, line := range res.Lines {
		f := strings.Fields(line)
		for i, tok := range f {
			if tok == "mean=" && i+1 < len(f) {
				v, _ := strconv.ParseFloat(f[i+1], 64)
				caps = append(caps, v)
			}
		}
		// mean=%6.1f may glue together; fallback parse below.
	}
	if len(caps) != 3 {
		caps = caps[:0]
		for _, line := range res.Lines {
			idx := strings.Index(line, "mean=")
			if idx < 0 {
				continue
			}
			rest := strings.Fields(line[idx+len("mean="):])
			v, _ := strconv.ParseFloat(rest[0], 64)
			caps = append(caps, v)
		}
	}
	if len(caps) != 3 || caps[2] <= caps[0] {
		t.Fatalf("backoff 0.9 cap %.1f should exceed 0.5 cap %.1f\n%s", caps[2], caps[0], res)
	}
}

func TestAblationEta(t *testing.T) {
	res := quick(t, "ablation-eta")
	if len(res.Lines) != 3 {
		t.Fatalf("lines:\n%s", res)
	}
}

func TestAblationCacheSize(t *testing.T) {
	res := quick(t, "ablation-cache")
	// Hit rate must be monotone nondecreasing in cache size.
	var rates []float64
	for _, line := range res.Lines {
		idx := strings.Index(line, "hit rate=")
		if idx < 0 {
			continue
		}
		v, _ := strconv.ParseFloat(strings.TrimSpace(line[idx+len("hit rate="):]), 64)
		rates = append(rates, v)
	}
	if len(rates) != 4 {
		t.Fatalf("rates = %v\n%s", rates, res)
	}
	for i := 1; i < len(rates); i++ {
		if rates[i]+1e-9 < rates[i-1] {
			t.Fatalf("hit rate not monotone: %v", rates)
		}
	}
	// Not below what the single CLOCK ring printed at Quick scale
	// (0.714 / 0.844 / 0.895 / 0.897; probation+CLOCK prints 0.776 /
	// 0.866 / 0.896 / 0.897).
	if rates[1] < 0.844 || rates[2] < 0.895 {
		t.Fatalf("hit rate at 256 / 1024 entries = %.3f / %.3f, below the CLOCK ring's 0.844 / 0.895", rates[1], rates[2])
	}
	if rates[len(rates)-1] < 0.3 {
		t.Fatalf("large-cache hit rate %.3f too low for Zipf workload", rates[len(rates)-1])
	}
}

// The remaining figure runners involve multi-second load drives; smoke-test
// them at Quick scale and assert their key qualitative claims.

func TestFig4AdaptiveBeatsNoBatching(t *testing.T) {
	if testing.Short() {
		t.Skip("load-driving experiment")
	}
	// Run a single targeted comparison rather than the full grid: the
	// linear SVM's adaptive throughput must far exceed no-batching.
	profile := frameworks.SKLearnLinearSVM()
	adaptiveThr, adaptiveP99, err := driveQueue(profile,
		batching.NewAIMD(batching.AIMDConfig{SLO: fig3SLO}), 0, 128,
		200*time.Millisecond, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	noneThr, _, err := driveQueue(profile, batching.NewFixed(1), 0, 128,
		200*time.Millisecond, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if adaptiveThr < 4*noneThr {
		t.Fatalf("adaptive %.0f qps not >> no-batching %.0f qps (paper: up to 26x)",
			adaptiveThr, noneThr)
	}
	if adaptiveP99 > 4*fig3SLO.Seconds() {
		t.Fatalf("adaptive p99 %.1fms far above SLO", adaptiveP99*1e3)
	}
}

func TestFig5DelayedBatchingHelpsBLASNotSpark(t *testing.T) {
	if testing.Short() {
		t.Skip("load-driving experiment")
	}
	// The gains ride on busy-time measurements of sub-100µs simulated
	// batches, which jitter on a loaded single-core host; measure up to
	// three times and pass on any clean run — a genuine regression fails
	// every attempt, a scheduler hiccup does not.
	var lastErr string
	for attempt := 0; attempt < 3; attempt++ {
		_, _, _, blasCapNoDelay, err := driveOpenLoop(frameworks.SKLearnSVMBLAS(), 0, 4000, 400*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		_, _, batch, blasCapDelay, err := driveOpenLoop(frameworks.SKLearnSVMBLAS(), 2*time.Millisecond, 4000, 400*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if blasCapDelay < 2*blasCapNoDelay {
			lastErr = fmt.Sprintf("delay should multiply BLAS capacity (paper: 3.3x): %.0f -> %.0f", blasCapNoDelay, blasCapDelay)
			continue
		}
		if batch < 1.5 {
			lastErr = fmt.Sprintf("delayed batching formed no batches: mean %.2f", batch)
			continue
		}
		// The Spark-like container is already efficient at small batches:
		// its capacity gain from the same delay is small.
		_, _, _, sparkCapNoDelay, err := driveOpenLoop(frameworks.PySparkLinearSVM(), 0, 4000, 400*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, sparkCapDelay, err := driveOpenLoop(frameworks.PySparkLinearSVM(), 2*time.Millisecond, 4000, 400*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		sparkGain := sparkCapDelay / sparkCapNoDelay
		blasGain := blasCapDelay / blasCapNoDelay
		if blasGain < 1.5*sparkGain {
			lastErr = fmt.Sprintf("BLAS gain (%.1fx) should far exceed Spark gain (%.1fx)", blasGain, sparkGain)
			continue
		}
		return
	}
	t.Fatal(lastErr)
}

func TestFig6NetworkBottleneck(t *testing.T) {
	if testing.Short() {
		t.Skip("load-driving experiment")
	}
	// With 4 replicas, the 10 Gbps network must outperform 1 Gbps, and
	// 10 Gbps with 4 replicas must beat a single replica (scaling).
	agg1, _, _, err := runReplicaScaling(1, 10, 512, 128, 150*time.Millisecond, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	aggFast, _, _, err := runReplicaScaling(4, 10, 512, 128, 150*time.Millisecond, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	aggSlow, _, _, err := runReplicaScaling(4, 1, 512, 128, 150*time.Millisecond, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if aggFast < 2*agg1 {
		t.Fatalf("10Gbps 4-replica agg %.0f !>= 2x single %.0f", aggFast, agg1)
	}
	if aggFast < 1.2*aggSlow {
		t.Fatalf("10Gbps agg %.0f not clearly above 1Gbps agg %.0f", aggFast, aggSlow)
	}
}

func TestFig11ParityAndPythonPenalty(t *testing.T) {
	if testing.Short() {
		t.Skip("load-driving experiment")
	}
	profile := frameworks.Profile{Name: "tf-mini", Fixed: 1500 * time.Microsecond,
		PerItem: 2500 * time.Microsecond, Parallelism: 0.999, StaticBatch: 128, Jitter: 0.03}
	cppThr, _, err := runClipperVariant(profile, 512, 128, 0, 512, 200*time.Millisecond, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	pyThr, _, err := runClipperVariant(profile, 512, 128, 8*time.Microsecond, 512, 200*time.Millisecond, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if pyThr >= cppThr {
		t.Fatalf("python container %.0f qps should trail C++ %.0f qps", pyThr, cppThr)
	}
}

func TestDatasetStandinsTrainable(t *testing.T) {
	ds := mnistStandin(400)
	train, test := ds.Split(0.8, 1)
	m := models.TrainLinearSVM("probe", train, models.DefaultLinearConfig())
	if acc := models.Accuracy(m, test.X, test.Y); acc < 0.6 {
		t.Fatalf("mnist standin accuracy %.3f too low", acc)
	}
	var _ *dataset.Dataset = cifarStandin(10)
	var _ *dataset.Dataset = imagenetStandin(10)
}

func TestCascadeExtensionTradeoff(t *testing.T) {
	res := quick(t, "extension-cascade")
	// Parse: each line has accuracy=X mean-latency=Y ms ...
	type row struct{ acc, lat float64 }
	var rows []row
	for _, line := range res.Lines {
		var r row
		ai := strings.Index(line, "accuracy=")
		li := strings.Index(line, "mean-latency=")
		if ai < 0 || li < 0 {
			continue
		}
		fmt.Sscanf(line[ai:], "accuracy=%f", &r.acc)
		fmt.Sscanf(line[li:], "mean-latency=%f", &r.lat)
		rows = append(rows, r)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v\n%s", rows, res)
	}
	full, casc := rows[0], rows[1]
	if casc.lat >= full.lat {
		t.Fatalf("cascade latency %.3fms !< full ensemble %.3fms\n%s", casc.lat, full.lat, res)
	}
	if casc.acc < full.acc-0.08 {
		t.Fatalf("cascade accuracy %.3f too far below ensemble %.3f\n%s", casc.acc, full.acc, res)
	}
}
