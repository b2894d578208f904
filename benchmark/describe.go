package main

import "encoding/json"

const runSeconds = 36 // BENCHMARK.json's run_seconds: three phases of 12 s

// benchmarkJSON is the shape of ../BENCHMARK.json. `-describe` prints it
// from the tables in this package, so the file cannot drift from the code
// unnoticed (a test compares the two).
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricJSON   `json:"end_to_end"`
	PerLayer   []metricJSON   `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

func describe() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		b.EndToEnd = append(b.EndToEnd, metricJSON{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, metricJSON{d.name, d.unit, d.better, nil})
	}
	return b
}

func describeJSON() string {
	out, err := json.MarshalIndent(describe(), "", "  ")
	if err != nil {
		panic(err)
	}
	return string(out)
}
