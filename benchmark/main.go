// Command benchmark is the repository's one benchmark: it hosts a Clipper
// node, its model containers and a load generator in one process and
// reports the end-to-end metrics (timed run) or the per-layer metrics
// (traced run) of one workload. See README.md and ../BENCHMARK.json.
//
//	bash benchmark/run.sh --workload zipf_cache --seed 1 --seconds 27 --trace 0
//	bash benchmark/run.sh -workload all -seed 1 -repeat 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
)

// reading is one metric value in the last line's "metrics" object.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine is the result object the driver reads.
type lastLine struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed of the inputs, arrivals and op kinds")
		seconds = flag.Int("seconds", runSeconds, "measured seconds per run (three phases of a third each)")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		repeat  = flag.Int("repeat", 0, "stability mode: run K times interleaved and print the spreads")
		reverse = flag.Bool("reverse", false, "with -repeat: take the workloads in reverse order")
		smoke   = flag.Bool("smoke", false, "1 s phases and one set-up, for a quick check that nothing fails")
		desc    = flag.Bool("describe", false, "print BENCHMARK.json as the code defines it and exit")
		outDir  = flag.String("out", "benchmark/out", "directory the trace files go to")
	)
	flag.Parse()
	if *desc {
		fmt.Println(describeJSON())
		return
	}
	setUps := setUpRepeats
	if *smoke {
		*seconds, setUps = 3, 1
	}
	var chosen []*workload
	if *name == "all" {
		chosen = workloads
	} else if w := findWorkload(*name); w != nil {
		chosen = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 3 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "need -seconds >= 3 and -trace 0 or 1")
		os.Exit(2)
	}
	if *repeat > 0 {
		if *reverse {
			chosen = slices.Clone(chosen)
			slices.Reverse(chosen)
		}
		os.Exit(runRepeat(chosen, *seed, *seconds, setUps, *repeat))
	}

	out := lastLine{Correct: true, Metrics: map[string]reading{}}
	for _, w := range chosen {
		var r *runResult
		if *trace == 1 {
			r = runTraced(w, *seed, *seconds, *outDir)
		} else {
			r = runTimed(w, *seed, *seconds, setUps)
		}
		r.print()
		out.Correct = out.Correct && len(r.problems) == 0
		out.Attempted += r.attempted
		out.Failed += r.failed
		for k, v := range r.metrics {
			rd := reading{Value: v, Unit: unitOf(k)}
			if len(chosen) > 1 {
				k = w.name + "." + k
			}
			out.Metrics[k] = rd
		}
	}
	if out.Attempted == 0 {
		out.Attempted = 1 // the contract wants at least 1; correct is false here
		out.Correct = false
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// runRepeat is the stability mode: the chosen workloads k times
// interleaved, each repetition on its own seed, then per metric the
// median, quartiles and spreads against the bound. It returns the exit
// code: 1 when a spread exceeds its bound or a run was incorrect.
func runRepeat(chosen []*workload, seed int64, seconds, setUps, k int) int {
	values := map[string]map[string][]float64{} // workload -> metric -> values
	code := 0
	for i := 0; i < k; i++ {
		for _, w := range chosen {
			r := runTimed(w, seed+int64(i), seconds, setUps)
			r.print()
			if len(r.problems) > 0 {
				code = 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, v := range r.metrics {
				values[w.name][name] = append(values[w.name][name], v)
			}
		}
	}
	fmt.Printf("\n== stability over %d runs per workload (seeds %d..%d, %d s each)\n", k, seed, seed+int64(k)-1, seconds)
	fmt.Printf("%-18s %-16s %12s %12s %12s %8s %8s %6s\n",
		"workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	for _, w := range chosen {
		for _, d := range endToEnd {
			vs := values[w.name][d.name]
			if len(vs) == 0 {
				continue
			}
			med := median(vs)
			q1, q3 := quartiles(vs)
			s := append([]float64(nil), vs...)
			sort.Float64s(s)
			iqr, rng := (q3-q1)/med, (s[len(s)-1]-s[0])/med
			verdict := ""
			// The driver holds every metric but setup_s to its bound.
			if iqr > d.bound && d.name != "setup_s" {
				verdict = "  SPREAD EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-18s %-16s %12.4f %12.4f %12.4f %8.4f %8.4f %6.2f%s\n",
				w.name, d.name, med, q1, q3, iqr, rng, d.bound, verdict)
		}
	}
	return code
}
