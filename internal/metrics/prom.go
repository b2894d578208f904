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
//   - A Registry holds groups of metric families (name + HELP + TYPE).
//     Each group has one collect call that reads its source once and
//     fills the series of every family in the group, so all of a group's
//     families show the same state of the source. Register adds a group
//     of one family. Collection happens only inside WritePrometheus, at
//     scrape time, once per group, by reading the live atomics.
//   - WritePrometheus renders deterministic output: families in sorted
//     name order, series in sorted label order with a histogram's
//     buckets in increasing le, label values escaped, duplicate series
//     rejected — the invariants scripts/check_prom.sh gates in CI.
//
// Collectors may enumerate dynamic populations (replicas, apps, tenants)
// at scrape time, so a family registered once covers members deployed
// later.

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is a Prometheus metric type, emitted on the family's TYPE line.
type Kind string

// The exposition format's metric types. Histograms expose as
// KindHistogram, through AppendHistogram.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
	KindUntyped   Kind = "untyped"
)

// Label is one name="value" pair on a series. Values may be any UTF-8
// string (escaped on write); names must match the Prometheus label-name
// grammar.
type Label struct {
	Name  string
	Value string
}

// Series is one sample within a family: an optional name suffix
// ("_bucket", "_sum", "_count" for histogram components), label pairs,
// and the value.
type Series struct {
	Suffix string
	Labels []Label
	Value  float64
}

// Family names one metric family: its name, which must match the
// Prometheus metric-name grammar, its HELP line text (escaped on write) and
// its TYPE.
type Family struct {
	Name string
	Help string
	Kind Kind
}

// group is families filled by one collect call.
type group struct {
	fams    []Family
	collect func(dst [][]Series)
}

// Registry is a set of metric families exposed together by
// WritePrometheus. The zero value is ready to use; methods are safe for
// concurrent use.
type Registry struct {
	mu     sync.Mutex
	groups []group
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// errDuplicateFamily is wrapped by RegisterGroup when a family name is
// already taken.
var errDuplicateFamily = fmt.Errorf("metrics: family already registered")

// Register adds one family. collect appends the family's current series
// to dst and returns the extended slice; returning dst unchanged (no
// series yet — e.g. no replica deployed) suppresses the family for that
// scrape, HELP and TYPE included.
func (r *Registry) Register(name, help string, kind Kind, collect func(dst []Series) []Series) error {
	if collect == nil {
		return fmt.Errorf("metrics: nil collector for %q", name)
	}
	return r.RegisterGroup([]Family{{name, help, kind}}, func(dst [][]Series) { dst[0] = collect(dst[0]) })
}

// RegisterGroup adds families that one read of a source fills: at each
// scrape, collect is called once with one empty series slice per family,
// in fams order, and appends family i's series to dst[i]. It runs at
// scrape time only and must be safe for concurrent use with the
// measurement paths it reads. A family left without series is suppressed
// for that scrape. Either every family is added or, on error, none is.
func (r *Registry) RegisterGroup(fams []Family, collect func(dst [][]Series)) error {
	if collect == nil {
		return fmt.Errorf("metrics: nil collector for %v", fams)
	}
	for _, f := range fams {
		if !validMetricName(f.Name) {
			return fmt.Errorf("metrics: invalid metric name %q", f.Name)
		}
		switch f.Kind {
		case KindCounter, KindGauge, KindHistogram, KindUntyped:
		default:
			return fmt.Errorf("metrics: invalid kind %q for %q", f.Kind, f.Name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	taken := r.families()
	for _, f := range fams {
		if slices.Contains(taken, f.Name) {
			return fmt.Errorf("%w: %q", errDuplicateFamily, f.Name)
		}
		taken = append(taken, f.Name)
	}
	r.groups = append(r.groups, group{fams: slices.Clone(fams), collect: collect})
	return nil
}

// Families returns the registered family names in sorted order.
func (r *Registry) Families() []string {
	r.mu.Lock()
	names := r.families()
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// families lists the registered family names. r.mu must be held.
func (r *Registry) families() []string {
	var names []string
	for _, g := range r.groups {
		for _, f := range g.fams {
			names = append(names, f.Name)
		}
	}
	return names
}

// WritePrometheus calls every group's collect once, then renders every
// family in text exposition format: families in name order, each
// non-empty family as a HELP line, a TYPE line, and its series ordered by
// label set, then name suffix, then le as a number, so a histogram's
// buckets rise. Collection errors are impossible by construction; the
// returned error is a write error or an invariant violation (illegal
// label name or le, duplicate series) from a collector.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	groups := slices.Clone(r.groups)
	r.mu.Unlock()

	type filled struct {
		*Family
		series []Series
	}
	var fams []filled
	for _, g := range groups {
		dst := make([][]Series, len(g.fams))
		g.collect(dst)
		for i := range g.fams {
			fams = append(fams, filled{&g.fams[i], dst[i]})
		}
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })

	var buf strings.Builder
	lines := make([]line, 0, 64)
	for _, f := range fams {
		if len(f.series) == 0 {
			continue
		}
		lines = lines[:0]
		for i := range f.series {
			l, err := renderSeries(f.Name, &f.series[i])
			if err != nil {
				return err
			}
			lines = append(lines, l)
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i].before(lines[j]) })
		for i := 1; i < len(lines); i++ {
			if !lines[i-1].before(lines[i]) {
				return fmt.Errorf("metrics: duplicate series %s", lines[i].text)
			}
		}
		buf.WriteString("# HELP ")
		buf.WriteString(f.Name)
		buf.WriteByte(' ')
		buf.WriteString(escapeHelp(f.Help))
		buf.WriteString("\n# TYPE ")
		buf.WriteString(f.Name)
		buf.WriteByte(' ')
		buf.WriteString(string(f.Kind))
		buf.WriteByte('\n')
		for _, l := range lines {
			buf.WriteString(l.text)
			buf.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, buf.String())
	return err
}

// line is one rendered sample and the key it is ordered by.
type line struct {
	key  string  // the labels other than le, then the name suffix
	le   float64 // the le label's value; 0 without one
	text string
}

func (a line) before(b line) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.le < b.le
}

// renderSeries renders one sample line: name[suffix]{labels} value.
func renderSeries(name string, s *Series) (line, error) {
	full := name + s.Suffix
	if !validMetricName(full) {
		return line{}, fmt.Errorf("metrics: invalid series name %q", full)
	}
	var l line
	var b, key strings.Builder
	b.WriteString(full)
	if len(s.Labels) > 0 {
		b.WriteByte('{')
		for i, lb := range s.Labels {
			if !validLabelName(lb.Name) {
				return line{}, fmt.Errorf("metrics: invalid label name %q on %q", lb.Name, full)
			}
			if i > 0 {
				b.WriteByte(',')
			}
			start := b.Len()
			b.WriteString(lb.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(lb.Value))
			b.WriteByte('"')
			if lb.Name != "le" {
				key.WriteString(b.String()[start:])
				key.WriteByte(',')
				continue
			}
			le, err := strconv.ParseFloat(lb.Value, 64)
			if err != nil || math.IsNaN(le) {
				return line{}, fmt.Errorf("metrics: invalid le %q on %q", lb.Value, full)
			}
			l.le = le
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(s.Value))
	key.WriteByte(0)
	key.WriteString(s.Suffix)
	l.key, l.text = key.String(), b.String()
	return l, nil
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

// validMetricName reports whether name matches the Prometheus metric-name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
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

// validLabelName reports whether name matches the Prometheus label-name
// grammar [a-zA-Z_][a-zA-Z0-9_]* and is not a reserved "__" name.
func validLabelName(name string) bool {
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

// The le ladder every histogram is exposed on: each power of two from
// 2^-20 (≈ 1 µs, in seconds) to 2^12 (4,096, the batch cap), then +Inf.
// Each edge is a bucket's upper edge, so every cumulative count is exact,
// and one ladder for every series makes sum by (le) exact across replicas
// and nodes.
const ladderMin, ladderMax = -20, 12

var ladderLE = func() (le [ladderMax - ladderMin + 2]string) {
	for i := range le {
		le[i] = formatValue(math.Ldexp(1, ladderMin+i))
	}
	le[len(le)-1] = "+Inf"
	return le
}()

// AppendHistogram appends h as Prometheus histogram series to dst: a
// cumulative _bucket series per le of the ladder, then _sum and _count,
// all carrying labels. The buckets and _count come from one read of h's
// counts, so le="+Inf" equals _count. Use it inside collectors that
// expose labeled populations.
func AppendHistogram(dst []Series, h *Histogram, labels ...Label) []Series {
	var c [numBuckets]uint64
	n := h.load(&c)
	// One backing array for every bucket's labels, sliced per bucket.
	ls := make([]Label, 0, len(ladderLE)*(len(labels)+1))
	var cum uint64
	next := 0
	for i, le := range ladderLE {
		top := numBuckets - 1
		if i < len(ladderLE)-1 {
			top = (ladderMin + i - minExp) * subBuckets
		}
		for ; next <= top; next++ {
			cum += c[next]
		}
		start := len(ls)
		ls = append(append(ls, labels...), Label{Name: "le", Value: le})
		dst = append(dst, Series{Suffix: "_bucket", Labels: ls[start:len(ls):len(ls)], Value: float64(cum)})
	}
	dst = append(dst, Series{Suffix: "_sum", Labels: labels, Value: h.Sum()})
	return append(dst, Series{Suffix: "_count", Labels: labels, Value: float64(n)})
}
