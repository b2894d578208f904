package metrics

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestWritePrometheusGolden pins the full exposition output for a small
// registry byte-for-byte: family ordering, HELP/TYPE lines, label
// rendering and escaping, summary component ordering, and value
// formatting are all format contracts scrapers depend on.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()

	var hits Counter
	hits.Add(42)
	r.MustRegister("test_hits_total", "total hits", KindCounter,
		GaugeCollector(func() float64 { return float64(hits.Value()) }))

	r.MustRegister("test_temperature", `weird "help" with \ and
newline`, KindGauge, GaugeCollector(func() float64 { return -1.5 }))

	r.MustRegister("test_queue_depth", "per-replica depth", KindGauge,
		func(dst []Series) []Series {
			// Deliberately unsorted: the writer must order series.
			dst = append(dst, Series{Labels: []Label{{"model", "svm"}, {"replica", "b/1"}}, Value: 2})
			dst = append(dst, Series{Labels: []Label{{"model", "svm"}, {"replica", `a"0\x` + "\n"}}, Value: 7})
			return dst
		})

	h := NewHistogram()
	for i := 0; i < 4; i++ {
		h.Observe(2.5) // identical samples: quantile interpolation is exact
	}
	r.MustRegister("test_latency_seconds", "latency summary", KindSummary,
		func(dst []Series) []Series { return AppendSummary(dst, h) })

	r.MustRegister("test_empty", "never present", KindGauge,
		func(dst []Series) []Series { return dst })

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_hits_total total hits
# TYPE test_hits_total counter
test_hits_total 42
# HELP test_latency_seconds latency summary
# TYPE test_latency_seconds summary
test_latency_seconds_count 4
test_latency_seconds_sum 10
test_latency_seconds{quantile="0.5"} 2.5
test_latency_seconds{quantile="0.95"} 2.5
test_latency_seconds{quantile="0.99"} 2.5
# HELP test_queue_depth per-replica depth
# TYPE test_queue_depth gauge
test_queue_depth{model="svm",replica="a\"0\\x\n"} 7
test_queue_depth{model="svm",replica="b/1"} 2
# HELP test_temperature weird "help" with \\ and\nnewline
# TYPE test_temperature gauge
test_temperature -1.5
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	ok := func(dst []Series) []Series { return append(dst, Series{Value: 1}) }
	if err := r.Register("2bad", "x", KindGauge, ok); err == nil {
		t.Error("accepted invalid metric name")
	}
	if err := r.Register("fine_name", "x", Kind("florb"), ok); err == nil {
		t.Error("accepted invalid kind")
	}
	if err := r.Register("fine_name", "x", KindGauge, nil); err == nil {
		t.Error("accepted nil collector")
	}
	if err := r.Register("fine_name", "x", KindGauge, ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("fine_name", "x", KindGauge, ok); !errors.Is(err, ErrDuplicateFamily) {
		t.Errorf("duplicate register: %v", err)
	}
	fams := r.Families()
	if len(fams) != 1 || fams[0] != "fine_name" {
		t.Errorf("families: %v", fams)
	}
}

func TestWriteErrors(t *testing.T) {
	t.Run("duplicate series", func(t *testing.T) {
		r := NewRegistry()
		r.MustRegister("dup_gauge", "x", KindGauge, func(dst []Series) []Series {
			dst = append(dst, Series{Labels: []Label{{"a", "1"}}, Value: 1})
			dst = append(dst, Series{Labels: []Label{{"a", "1"}}, Value: 2})
			return dst
		})
		if err := r.WritePrometheus(&strings.Builder{}); err == nil {
			t.Error("duplicate series not rejected")
		}
	})
	t.Run("bad label name", func(t *testing.T) {
		r := NewRegistry()
		r.MustRegister("bad_label", "x", KindGauge, func(dst []Series) []Series {
			return append(dst, Series{Labels: []Label{{"0day", "1"}}, Value: 1})
		})
		if err := r.WritePrometheus(&strings.Builder{}); err == nil {
			t.Error("bad label name not rejected")
		}
	})
	t.Run("reserved label name", func(t *testing.T) {
		r := NewRegistry()
		r.MustRegister("rsv_label", "x", KindGauge, func(dst []Series) []Series {
			return append(dst, Series{Labels: []Label{{"__name__", "1"}}, Value: 1})
		})
		if err := r.WritePrometheus(&strings.Builder{}); err == nil {
			t.Error("reserved label name not rejected")
		}
	})
	t.Run("bad suffix", func(t *testing.T) {
		r := NewRegistry()
		r.MustRegister("bad_suffix", "x", KindGauge, func(dst []Series) []Series {
			return append(dst, Series{Suffix: " nope", Value: 1})
		})
		if err := r.WritePrometheus(&strings.Builder{}); err == nil {
			t.Error("bad suffix not rejected")
		}
	})
}

func TestFormatValueSpecials(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0:            "0",
		1e9:          "1e+09",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}

func TestAppendSummary(t *testing.T) {
	lbl := Label{Name: "app", Value: "demo"}
	h := NewHistogram()
	h.Observe(1)
	h.Observe(3)
	s := AppendSummary(nil, h, lbl)
	if len(s) != 5 {
		t.Fatalf("summary series: %+v", s)
	}
	var sum, count float64
	for _, ser := range s {
		switch ser.Suffix {
		case "_sum":
			sum = ser.Value
		case "_count":
			count = ser.Value
		default:
			if len(ser.Labels) != 2 || ser.Labels[0] != lbl || ser.Labels[1].Name != "quantile" {
				t.Errorf("quantile labels: %+v", ser.Labels)
			}
		}
	}
	if sum != 4 || count != 2 {
		t.Errorf("sum=%v count=%v", sum, count)
	}
}

// TestWritePrometheusConcurrent scrapes while each collected measurement
// is being hammered; under -race this proves collection is
// safe against the live instrumentation paths.
func TestWritePrometheusConcurrent(t *testing.T) {
	r := NewRegistry()
	var c Counter
	h := NewHistogram()
	e := NewEWMA(0.2)
	r.MustRegister("cc_total", "c", KindCounter,
		GaugeCollector(func() float64 { return float64(c.Value()) }))
	r.MustRegister("cc_lat_seconds", "h", KindSummary,
		func(dst []Series) []Series { return AppendSummary(dst, h) })
	r.MustRegister("cc_ewma", "e", KindGauge, GaugeCollector(e.Value))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(1.5)
					e.Observe(2.5)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var buf strings.Builder
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "# TYPE cc_total counter") {
			t.Fatalf("scrape %d missing family:\n%s", i, buf.String())
		}
	}
	close(stop)
	wg.Wait()
}

func TestNameValidators(t *testing.T) {
	for name, want := range map[string]bool{
		"clipper_cache_hits_total": true,
		"a:b_c9":                   true,
		"_ok":                      true,
		"":                         false,
		"9lead":                    false,
		"has-dash":                 false,
		"has space":                false,
	} {
		if got := ValidMetricName(name); got != want {
			t.Errorf("ValidMetricName(%q) = %v", name, got)
		}
	}
	for name, want := range map[string]bool{
		"model":    true,
		"model_id": true,
		"__magic":  false,
		"9x":       false,
		"a:b":      false,
		"":         false,
	} {
		if got := ValidLabelName(name); got != want {
			t.Errorf("ValidLabelName(%q) = %v", name, got)
		}
	}
}
