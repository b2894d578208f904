package core

import (
	"context"
	"testing"

	"clipper/internal/selection"
	"clipper/internal/testutil"
)

// cacheHitAllocs registers an app over the given stub models, serves x once
// so every model's prediction is cached, and counts the allocations of one
// cache-hit PredictContext.
func cacheHitAllocs(t *testing.T, policy selection.Policy, names ...string) float64 {
	t.Helper()
	models := make([]*stubModel, len(names))
	for i, n := range names {
		models[i] = &stubModel{name: n, label: 1}
	}
	cl := newClipperWithModels(t, models...)
	app, err := cl.RegisterApp(AppConfig{Name: "app", Models: names, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	x := make([]float64, 784)
	if _, err := app.PredictContext(ctx, "", x); err != nil {
		t.Fatal(err)
	}
	_, misses := cl.Cache().Stats()
	allocs := testing.AllocsPerRun(200, func() {
		if resp, err := app.PredictContext(ctx, "", x); err != nil || resp.Missing != 0 {
			t.Fatalf("resp %+v err %v", resp, err)
		}
	})
	if _, m := cl.Cache().Stats(); m != misses {
		t.Fatalf("measured path missed the cache: misses %d -> %d", misses, m)
	}
	return allocs
}

// Allocations of a cache-hit predict, as observed: the policy's fresh
// state and selected indices, and gather's result slice and the one
// backing array its predictions share. The predictions used to escape one
// by one and the global context's state key was rebuilt per request: 5
// allocations for one model, 8 for four.
func TestCacheHitPredictAllocs(t *testing.T) {
	if got, want := cacheHitAllocs(t, selection.NewStatic(0), "m"), 4.0; got != want {
		t.Errorf("1-model static app: %v allocs per cache-hit predict, want %v", got, want)
	}
	if got, want := cacheHitAllocs(t, selection.NewExp4(0), "m0", "m1", "m2", "m3"), 4.0; got != want {
		t.Errorf("4-model Exp4 app: %v allocs per cache-hit predict, want %v", got, want)
	}
}

// A one-model miss with no SLO at window 1 takes the fan-in every miss
// takes, in at most 13 allocations.
func TestMissPredictAllocs(t *testing.T) {
	cl := New(Config{CacheSize: 4096})
	defer cl.Close()
	if _, err := cl.Deploy(&stubModel{name: "m", label: 1}, nil, serialQcfg()); err != nil {
		t.Fatal(err)
	}
	app, err := cl.RegisterApp(AppConfig{Name: "app", Models: []string{"m"}, Policy: selection.NewStatic(0)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	x := make([]float64, 16)
	allocs := testing.AllocsPerRun(1000, func() {
		x[0]++
		if resp, err := app.PredictContext(ctx, "", x); err != nil || resp.Missing != 0 {
			t.Fatalf("resp %+v err %v", resp, err)
		}
	})
	if _, misses := cl.Cache().Stats(); misses < 1000 {
		t.Fatalf("%d cache misses, want every measured predict to miss", misses)
	}
	if !testutil.RaceEnabled() && allocs > 13 {
		t.Errorf("%v allocations per one-model miss, want at most 13", allocs)
	}
}
