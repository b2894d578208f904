// Command bench runs the paper-reproduction experiments and prints their
// tables and series, or measures the serving hot paths and emits a JSON
// perf report (the PR-over-PR performance trajectory).
//
// Usage:
//
//	bench -experiment all -scale quick
//	bench -experiment fig4 -scale full
//	bench -list
//	bench -perf OUT.json -id some-id
//	bench -check OUT.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"clipper/internal/experiments"
	"clipper/internal/perf"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or 'all'")
		scaleName  = flag.String("scale", "quick", "experiment fidelity: quick or full")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		perfOut    = flag.String("perf", "", "run the hot-path perf suite and write its JSON report to this path ('-' for stdout)")
		perfID     = flag.String("id", "", "report id recorded in the -perf JSON (required with -perf)")
		perfDur    = flag.Duration("dur", 2*time.Second, "duration of each -perf throughput measurement")
		checkPath  = flag.String("check", "", "validate the perf report JSON at this path (schema sanity; the CI bench gate) and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *checkPath != "" {
		f, err := os.Open(*checkPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		rep, err := perf.ValidateJSON(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *checkPath, err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok (%s, %d measurements)\n", *checkPath, rep.ID, len(rep.Measurements))
		return
	}

	if *perfOut != "" {
		if *perfID == "" {
			fmt.Fprintln(os.Stderr, "bench: -perf needs -id")
			os.Exit(2)
		}
		rep := perf.Run(*perfID, *perfDur)
		out := os.Stdout
		if *perfOut != "-" {
			f, err := os.Create(*perfOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := rep.WriteJSON(out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		for _, m := range rep.Measurements {
			fmt.Fprintf(os.Stderr, "%-32s %12.1f %s\n", m.Name, m.Value, m.Unit)
		}
		return
	}

	scale := experiments.Quick
	switch strings.ToLower(*scaleName) {
	case "quick":
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown scale %q (quick|full)\n", *scaleName)
		os.Exit(2)
	}

	ids := []string{*experiment}
	if *experiment == "all" {
		ids = experiments.IDs()
	}
	failed := false
	for _, id := range ids {
		res, err := experiments.Run(id, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s failed: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Print(res)
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}
