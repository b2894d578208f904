package metrics

// Prometheus text exposition (format version 0.0.4), dependency-free.
//
// The serving stack already measures everything it does with the atomic
// primitives in this package; this file gives those measurements a
// standard scrape surface. The design keeps instrumentation and
// exposition strictly separate so the predict hot path never pays for
// observability:
//
//   - Hot paths update Counters/EWMAs/Histograms exactly as before —
//     registration adds no code to them.
//   - A Registry holds metric *families* (name + HELP + TYPE) bound to
//     CollectFuncs. Collection happens only inside WritePrometheus, at
//     scrape time, by reading the live atomics.
//   - WritePrometheus renders deterministic output: families in sorted
//     name order, series in sorted label order, label values escaped,
//     duplicate series rejected — the invariants scripts/check_prom.sh
//     gates in CI.
//
// Collectors may enumerate dynamic populations (replicas, apps, tenants)
// at scrape time, so a family registered once covers members deployed
// later.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is a Prometheus metric type, emitted on the family's TYPE line.
type Kind string

// The exposition format's metric types. Reservoir Histograms expose as
// KindSummary (pre-computed quantiles), not KindHistogram (cumulative
// buckets), because they sample rather than bucket.
const (
	KindCounter Kind = "counter"
	KindGauge   Kind = "gauge"
	KindSummary Kind = "summary"
	KindUntyped Kind = "untyped"
)

// Label is one name="value" pair on a series. Values may be any UTF-8
// string (escaped on write); names must match the Prometheus label-name
// grammar.
type Label struct {
	Name  string
	Value string
}

// Series is one sample within a family: an optional name suffix ("_sum",
// "_count" for summary components), label pairs, and the value.
type Series struct {
	Suffix string
	Labels []Label
	Value  float64
}

// CollectFunc appends a family's current series to dst and returns the
// extended slice. It is called at scrape time only and must be safe for
// concurrent use with the measurement paths it reads. Returning dst
// unchanged (no series yet — e.g. no replica deployed) suppresses the
// family entirely for that scrape, HELP/TYPE included.
type CollectFunc func(dst []Series) []Series

type family struct {
	name    string
	help    string
	kind    Kind
	collect CollectFunc
}

// Registry is a set of metric families exposed together by
// WritePrometheus. The zero value is ready to use; methods are safe for
// concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// ErrDuplicateFamily is wrapped by Register when the family name is
// already taken.
var ErrDuplicateFamily = fmt.Errorf("metrics: family already registered")

// Register adds a family. The name must match the Prometheus metric-name
// grammar and be unused; help is the HELP line text (escaped on write).
func (r *Registry) Register(name, help string, kind Kind, collect CollectFunc) error {
	if !ValidMetricName(name) {
		return fmt.Errorf("metrics: invalid metric name %q", name)
	}
	if collect == nil {
		return fmt.Errorf("metrics: nil collector for %q", name)
	}
	switch kind {
	case KindCounter, KindGauge, KindSummary, KindUntyped:
	default:
		return fmt.Errorf("metrics: invalid kind %q for %q", kind, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fams == nil {
		r.fams = make(map[string]*family)
	}
	if _, dup := r.fams[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateFamily, name)
	}
	r.fams[name] = &family{name: name, help: help, kind: kind, collect: collect}
	return nil
}

// MustRegister is Register, panicking on error. Use it for static wiring
// where a registration failure is a programming bug.
func (r *Registry) MustRegister(name, help string, kind Kind, collect CollectFunc) {
	if err := r.Register(name, help, kind, collect); err != nil {
		panic(err)
	}
}

// Families returns the registered family names in sorted order.
func (r *Registry) Families() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// WritePrometheus renders every family in text exposition format:
// families in name order, each non-empty family as a HELP line, a TYPE
// line, and its series in sorted order. Collection errors are impossible
// by construction; the returned error is a write error or an invariant
// violation (illegal label name, duplicate series) from a collector.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var buf strings.Builder
	scratch := make([]Series, 0, 64)
	lines := make([]string, 0, 64)
	for _, f := range fams {
		scratch = f.collect(scratch[:0])
		if len(scratch) == 0 {
			continue
		}
		lines = lines[:0]
		for i := range scratch {
			line, err := renderSeries(f.name, &scratch[i])
			if err != nil {
				return err
			}
			lines = append(lines, line)
		}
		sort.Strings(lines)
		for i := 1; i < len(lines); i++ {
			if seriesID(lines[i]) == seriesID(lines[i-1]) {
				return fmt.Errorf("metrics: duplicate series %s", seriesID(lines[i]))
			}
		}
		buf.WriteString("# HELP ")
		buf.WriteString(f.name)
		buf.WriteByte(' ')
		buf.WriteString(escapeHelp(f.help))
		buf.WriteString("\n# TYPE ")
		buf.WriteString(f.name)
		buf.WriteByte(' ')
		buf.WriteString(string(f.kind))
		buf.WriteByte('\n')
		for _, line := range lines {
			buf.WriteString(line)
			buf.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, buf.String())
	return err
}

// renderSeries renders one sample line: name[suffix]{labels} value.
func renderSeries(name string, s *Series) (string, error) {
	full := name + s.Suffix
	if !ValidMetricName(full) {
		return "", fmt.Errorf("metrics: invalid series name %q", full)
	}
	var b strings.Builder
	b.WriteString(full)
	if len(s.Labels) > 0 {
		b.WriteByte('{')
		for i, l := range s.Labels {
			if !ValidLabelName(l.Name) {
				return "", fmt.Errorf("metrics: invalid label name %q on %q", l.Name, full)
			}
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(s.Value))
	return b.String(), nil
}

// seriesID is the identity part of a rendered line (everything before the
// value): equal IDs with different values are still duplicate series.
func seriesID(line string) string {
	if i := strings.LastIndexByte(line, ' '); i >= 0 {
		return line[:i]
	}
	return line
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ValidMetricName reports whether name matches the Prometheus metric-name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
			continue
		}
		if c >= '0' && c <= '9' && i > 0 {
			continue
		}
		return false
	}
	return true
}

// ValidLabelName reports whether name matches the Prometheus label-name
// grammar [a-zA-Z_][a-zA-Z0-9_]* and is not a reserved "__" name.
func ValidLabelName(name string) bool {
	if name == "" || strings.HasPrefix(name, "__") {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' {
			continue
		}
		if c >= '0' && c <= '9' && i > 0 {
			continue
		}
		return false
	}
	return true
}

// escapeLabelValue escapes backslash, double-quote and newline, the three
// characters the exposition format requires escaping inside label values.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline, the two characters the
// exposition format requires escaping in HELP text.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// ---- Collector helpers ----

// GaugeCollector exposes the result of fn as a single gauge series,
// evaluated at scrape time.
func GaugeCollector(fn func() float64, labels ...Label) CollectFunc {
	return func(dst []Series) []Series {
		return append(dst, Series{Labels: labels, Value: fn()})
	}
}

// summaryQuantiles are the quantiles every Histogram summary exposes,
// matching the paper evaluation's reporting points.
var summaryQuantiles = []struct {
	label string
	pick  func(Summary) float64
}{
	{"0.5", func(s Summary) float64 { return s.P50 }},
	{"0.95", func(s Summary) float64 { return s.P95 }},
	{"0.99", func(s Summary) float64 { return s.P99 }},
}

// AppendSummary appends h as Prometheus summary series to dst: one
// quantile series per reporting point plus _sum and _count, all carrying
// labels. Use it inside CollectFuncs that expose labeled populations.
func AppendSummary(dst []Series, h *Histogram, labels ...Label) []Series {
	snap := h.Snapshot()
	for _, q := range summaryQuantiles {
		ql := make([]Label, 0, len(labels)+1)
		ql = append(ql, labels...)
		ql = append(ql, Label{Name: "quantile", Value: q.label})
		dst = append(dst, Series{Labels: ql, Value: q.pick(snap)})
	}
	dst = append(dst, Series{Suffix: "_sum", Labels: labels, Value: snap.Sum})
	dst = append(dst, Series{Suffix: "_count", Labels: labels, Value: float64(snap.Count)})
	return dst
}
