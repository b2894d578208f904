package metrics

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestWritePrometheusGolden pins the full exposition output for a small
// registry byte-for-byte: family ordering, HELP/TYPE lines, label
// rendering and escaping, histogram component ordering, and value
// formatting are all format contracts scrapers depend on.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()

	// A group: one collect call fills both families, whose output
	// interleaves with the other families' in name order.
	var hits Counter
	hits.Add(42)
	reads := 0
	if err := r.RegisterGroup([]Family{
		{"test_hits_total", "total hits", KindCounter},
		{"test_temperature", `weird "help" with \ and
newline`, KindGauge},
	}, func(dst [][]Series) {
		reads++
		dst[0] = append(dst[0], Series{Value: float64(hits.Value())})
		dst[1] = append(dst[1], Series{Value: -1.5})
	}); err != nil {
		t.Fatal(err)
	}

	mustRegister(t, r, "test_queue_depth", "per-replica depth", KindGauge,
		func(dst []Series) []Series {
			// Deliberately unsorted: the writer must order series.
			dst = append(dst, Series{Labels: []Label{{"model", "svm"}, {"replica", "b/1"}}, Value: 2})
			dst = append(dst, Series{Labels: []Label{{"model", "svm"}, {"replica", `a"0\x` + "\n"}}, Value: 7})
			return dst
		})

	mustRegister(t, r, "test_latency_seconds", "latency histogram", KindHistogram,
		func(dst []Series) []Series {
			// Deliberately unordered: buckets print in increasing numeric le.
			le := func(v string) []Label { return []Label{{"le", v}} }
			return append(dst,
				Series{Suffix: "_bucket", Labels: le("10"), Value: 3},
				Series{Suffix: "_sum", Value: 10},
				Series{Suffix: "_bucket", Labels: le("+Inf"), Value: 4},
				Series{Suffix: "_count", Value: 4},
				Series{Suffix: "_bucket", Labels: le("2"), Value: 1})
		})

	mustRegister(t, r, "test_empty", "never present", KindGauge,
		func(dst []Series) []Series { return dst })

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_hits_total total hits
# TYPE test_hits_total counter
test_hits_total 42
# HELP test_latency_seconds latency histogram
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="2"} 1
test_latency_seconds_bucket{le="10"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_count 4
test_latency_seconds_sum 10
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
	if reads != 1 {
		t.Errorf("the group was read %d times in one scrape, want 1", reads)
	}
}

// mustRegister registers a family or fails the test.
func mustRegister(t *testing.T, r *Registry, name, help string, kind Kind, collect func([]Series) []Series) {
	t.Helper()
	if err := r.Register(name, help, kind, collect); err != nil {
		t.Fatal(err)
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
	if err := r.Register("fine_name", "x", KindGauge, ok); !errors.Is(err, errDuplicateFamily) {
		t.Errorf("duplicate register: %v", err)
	}
	// A group registers all of its families or none.
	if err := r.RegisterGroup([]Family{{"group_a", "x", KindGauge}, {"fine_name", "x", KindGauge}}, func([][]Series) {}); !errors.Is(err, errDuplicateFamily) {
		t.Errorf("group over a taken name: %v", err)
	}
	if err := r.RegisterGroup([]Family{{"group_a", "x", KindGauge}, {"group_a", "x", KindGauge}}, func([][]Series) {}); !errors.Is(err, errDuplicateFamily) {
		t.Errorf("group naming a family twice: %v", err)
	}
	if err := r.RegisterGroup([]Family{{"group_a", "x", KindGauge}}, nil); err == nil {
		t.Error("accepted nil group collector")
	}
	fams := r.Families()
	if len(fams) != 1 || fams[0] != "fine_name" {
		t.Errorf("families: %v", fams)
	}
}

func TestWriteErrors(t *testing.T) {
	t.Run("duplicate series", func(t *testing.T) {
		r := NewRegistry()
		mustRegister(t, r, "dup_gauge", "x", KindGauge, func(dst []Series) []Series {
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
		mustRegister(t, r, "bad_label", "x", KindGauge, func(dst []Series) []Series {
			return append(dst, Series{Labels: []Label{{"0day", "1"}}, Value: 1})
		})
		if err := r.WritePrometheus(&strings.Builder{}); err == nil {
			t.Error("bad label name not rejected")
		}
	})
	t.Run("reserved label name", func(t *testing.T) {
		r := NewRegistry()
		mustRegister(t, r, "rsv_label", "x", KindGauge, func(dst []Series) []Series {
			return append(dst, Series{Labels: []Label{{"__name__", "1"}}, Value: 1})
		})
		if err := r.WritePrometheus(&strings.Builder{}); err == nil {
			t.Error("reserved label name not rejected")
		}
	})
	t.Run("bad le", func(t *testing.T) {
		r := NewRegistry()
		mustRegister(t, r, "bad_le", "x", KindHistogram, func(dst []Series) []Series {
			return append(dst, Series{Suffix: "_bucket", Labels: []Label{{"le", "high"}}, Value: 1})
		})
		if err := r.WritePrometheus(&strings.Builder{}); err == nil {
			t.Error("unparseable le not rejected")
		}
	})
	t.Run("bad suffix", func(t *testing.T) {
		r := NewRegistry()
		mustRegister(t, r, "bad_suffix", "x", KindGauge, func(dst []Series) []Series {
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

func TestAppendHistogram(t *testing.T) {
	lbl := Label{Name: "app", Value: "demo"}
	h := NewHistogram()
	for _, v := range []float64{1, 3, 1e-9, 1e5} {
		h.Observe(v)
	}
	s := AppendHistogram(nil, h, lbl)
	if len(s) != len(ladderLE)+2 {
		t.Fatalf("%d series, want %d buckets + _sum + _count", len(s), len(ladderLE))
	}
	cum := map[string]float64{}
	for i, ser := range s[:len(ladderLE)] {
		if ser.Suffix != "_bucket" || len(ser.Labels) != 2 || ser.Labels[0] != lbl || ser.Labels[1].Name != "le" {
			t.Fatalf("bucket %d: %+v", i, ser)
		}
		if i > 0 && ser.Value < s[i-1].Value {
			t.Errorf("bucket le=%s = %v falls below the previous %v", ser.Labels[1].Value, ser.Value, s[i-1].Value)
		}
		cum[ser.Labels[1].Value] = ser.Value
	}
	// Buckets are closed above: 1 counts at le="1", 3 at le="4", 1e-9 in
	// the first, and 1e5 (above the range) only at +Inf.
	for le, want := range map[string]float64{"9.5367431640625e-07": 1, "0.5": 1, "1": 2, "2": 2, "4": 3, "4096": 3, "+Inf": 4} {
		if cum[le] != want {
			t.Errorf("le=%q: %v, want %v", le, cum[le], want)
		}
	}
	sum, count := s[len(s)-2], s[len(s)-1]
	if sum.Suffix != "_sum" || count.Suffix != "_count" || sum.Value != 1+3+1e-9+1e5 || count.Value != 4 {
		t.Errorf("sum/count = %+v %+v", sum, count)
	}
}

// TestWritePrometheusBucketOrder: each label set's buckets print together
// in increasing numeric le (so le="128" before le="1024", which sorts
// after it as a string), followed by its _count and _sum.
func TestWritePrometheusBucketOrder(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram()
	h.Observe(100)
	mustRegister(t, r, "order_size", "h", KindHistogram, func(dst []Series) []Series {
		dst = AppendHistogram(dst, h, Label{"replica", "b"})
		return AppendHistogram(dst, h, Label{"replica", "a"})
	})
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")[2:]
	per := len(ladderLE) + 2
	if len(lines) != 2*per {
		t.Fatalf("%d series lines, want %d", len(lines), 2*per)
	}
	for g, replica := range []string{"a", "b"} {
		group := lines[g*per : (g+1)*per]
		prev := math.Inf(-1)
		for _, l := range group[:len(ladderLE)] {
			i := strings.Index(l, `le="`)
			if !strings.HasPrefix(l, `order_size_bucket{replica="`+replica+`",`) || i < 0 {
				t.Fatalf("replica %s: got %q among its buckets", replica, l)
			}
			le, err := strconv.ParseFloat(l[i+4:strings.LastIndexByte(l, '"')], 64)
			if err != nil || le <= prev {
				t.Fatalf("replica %s: le out of order at %q (previous %v)", replica, l, prev)
			}
			prev = le
		}
		if !strings.HasPrefix(group[per-2], "order_size_count{") || !strings.HasPrefix(group[per-1], "order_size_sum{") {
			t.Fatalf("replica %s: %q, %q after the buckets", replica, group[per-2], group[per-1])
		}
	}
}

// TestWritePrometheusConcurrent scrapes while each collected measurement
// is being hammered; under -race this proves collection is
// safe against the live instrumentation paths.
func TestWritePrometheusConcurrent(t *testing.T) {
	r := NewRegistry()
	var c Counter
	h := NewHistogram()
	var e EWMA
	mustRegister(t, r, "cc_total", "c", KindCounter, func(dst []Series) []Series {
		return append(dst, Series{Value: float64(c.Value())})
	})
	mustRegister(t, r, "cc_lat_seconds", "h", KindHistogram,
		func(dst []Series) []Series { return AppendHistogram(dst, h) })
	mustRegister(t, r, "cc_ewma", "e", KindGauge, func(dst []Series) []Series {
		return append(dst, Series{Value: e.Value()})
	})

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
		if got := validMetricName(name); got != want {
			t.Errorf("validMetricName(%q) = %v", name, got)
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
		if got := validLabelName(name); got != want {
			t.Errorf("validLabelName(%q) = %v", name, got)
		}
	}
}
