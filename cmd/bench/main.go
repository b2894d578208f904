// Command bench runs the paper-reproduction experiments and prints their
// tables and series. (Performance numbers come from benchmark/run.sh,
// declared in BENCHMARK.json, not from here.)
//
// Usage:
//
//	bench -experiment all -scale quick
//	bench -experiment fig4 -scale full
//	bench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"clipper/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or 'all'")
		scaleName  = flag.String("scale", "quick", "experiment fidelity: quick or full")
		list       = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
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
