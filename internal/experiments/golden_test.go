package experiments

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"clipper/internal/models"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this tree")

// quickRuns memoizes Run(id, Quick), so the golden and the shape tests that
// read whole reports drive each experiment once per test binary.
var quickRuns struct {
	sync.Mutex
	m map[string]Result
}

// quick returns the Quick-scale report of experiment id, running it on
// first use.
func quick(t *testing.T, id string) Result {
	t.Helper()
	quickRuns.Lock()
	defer quickRuns.Unlock()
	if res, ok := quickRuns.m[id]; ok {
		return res
	}
	res, err := Run(id, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if quickRuns.m == nil {
		quickRuns.m = make(map[string]Result)
	}
	quickRuns.m[id] = res
	return res
}

var (
	// timedField is a number that the wall clock sets rather than the
	// seeded computation: durations and latencies, throughputs and their
	// ratios, fig5's mean batch, and fig9's share of the ensemble missing
	// at the deadline. The spaces before the number pad a column whose
	// width follows the number, so they go with it.
	timedField = regexp.MustCompile(`(throughput=|completed=|capacity=|agg=|mean/replica=|latency=|lat=|p99=|mean-batch=|missing mean=|speedup:|cache:)\s*[0-9.]+%?|\(\s*[0-9.]+x\)`)
	// fig9's mitigated rows combine whichever members beat the deadline.
	mitigatedAccuracy = regexp.MustCompile(`(mitigated .*accuracy=)[0-9.]+`)
)

// maskTimed projects a report onto what the seeded computation decides,
// replacing every timedField value with "#".
func maskTimed(report string) string {
	lines := strings.Split(report, "\n")
	for i, l := range lines {
		l = timedField.ReplaceAllStringFunc(l, func(m string) string {
			if strings.HasPrefix(m, "(") {
				return "(#)"
			}
			return m[:strings.IndexAny(m, "=:")+1] + " #"
		})
		lines[i] = mitigatedAccuracy.ReplaceAllString(l, "${1}#")
	}
	return strings.Join(lines, "\n")
}

// scoresHeader opens the golden's scoreDigests section.
const scoresHeader = "=== scores: FNV-1a of every score's bits on a seeded split ===\n"

// scoreDigests pins every model kernel to the bit. The reports round
// accuracies to three or four places, which no one-ulp change moves, so the
// golden also holds one FNV-1a digest per model family over the bits of
// every score it gives a seeded test split. Go may fuse multiply-adds on
// architectures other than amd64, which moves these bits, so the digests are
// amd64's and compare only there.
func scoreDigests() string {
	train, test := mnistStandin(400).Split(0.7, 5)
	lin := models.DefaultLinearConfig()
	scorers := []models.Model{
		models.TrainNaiveBayes("bayes", train),
		models.TrainDecisionTree("tree", train, models.TreeConfig{MaxDepth: 6, Seed: 2}),
		models.TrainRandomForest("forest", train, models.DefaultTreeConfig()),
		models.TrainGBDT("gbdt", train, models.DefaultGBDTConfig()),
		models.TrainLogisticRegression("logreg", train, lin),
		models.TrainLinearSVM("svm", train, lin),
		models.TrainKernelMachine("kernel", train, models.DefaultKernelConfig()),
		models.TrainMLP("mlp", train, models.DefaultMLPConfig()),
		models.TrainKNN("knn", train, 5),
	}
	var b strings.Builder
	b.WriteString(scoresHeader)
	var word [8]byte
	for _, s := range scorers {
		h := fnv.New64a()
		for _, x := range test.X {
			for _, v := range s.(models.Scorer).Scores(x) {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
		}
		fmt.Fprintf(&b, "%-7s %016x\n", s.Name(), h.Sum64())
	}
	return b.String()
}

// TestQuickGolden pins the paper paths byte for byte: the masked output of
// `bench -experiment all -scale quick`, then scoreDigests, must equal
// testdata/quick.golden. Off amd64 only the masked reports compare.
// Regenerate it on amd64 with `go test ./internal/experiments -run
// TestQuickGolden -update` only when a change means to move a paper number.
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("load-driving experiments")
	}
	amd64 := runtime.GOARCH == "amd64"
	var b strings.Builder
	for _, id := range IDs() {
		b.WriteString(maskTimed(quick(t, id).String()))
		b.WriteByte('\n')
	}
	if amd64 {
		b.WriteString(scoreDigests())
	}
	got := b.String()
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if !amd64 {
			t.Fatal("regenerate the golden on amd64, whose score bits it pins")
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if !amd64 {
		want, _, _ = strings.Cut(want, scoresHeader)
	}
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
