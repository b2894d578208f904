package core

import (
	"context"
	"testing"

	"clipper/internal/container"
	"clipper/internal/selection"
)

// versioned is a stub predictor with an explicit version and label.
type versioned struct {
	name    string
	version int
	label   int
}

func (v *versioned) Info() container.Info {
	return container.Info{Name: v.name, Version: v.version, NumClasses: 10}
}

func (v *versioned) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	out := make([]container.Prediction, len(xs))
	for i := range out {
		out[i] = container.Prediction{Label: v.label}
	}
	return out, nil
}

// A model swap is a Deploy of a strictly newer version: it rolls the model
// over, replacing every replica and the cache-key version.

func TestSwapModelServesNewVersion(t *testing.T) {
	cl := New(Config{CacheSize: 1024})
	defer cl.Close()
	v1 := &versioned{name: "m", version: 1, label: 1}
	oldStopped := false
	if _, err := cl.Deploy(v1, func() { oldStopped = true }, qcfg()); err != nil {
		t.Fatal(err)
	}
	app, _ := cl.RegisterApp(AppConfig{Name: "a", Models: []string{"m"}, Policy: selection.NewStatic(0)})

	x := []float64{42}
	resp, err := app.Predict(context.Background(), x)
	if err != nil || resp.Label != 1 {
		t.Fatalf("v1 predict: %+v %v", resp, err)
	}

	v2 := &versioned{name: "m", version: 2, label: 2}
	if _, err := cl.Deploy(v2, nil, qcfg()); err != nil {
		t.Fatal(err)
	}
	if !oldStopped {
		t.Fatal("old replica not stopped")
	}
	info, _ := cl.ModelInfo("m")
	if info.Version != 2 {
		t.Fatalf("version = %d", info.Version)
	}

	// The same query must NOT be served from the v1 cache entry: keys
	// are version-scoped.
	resp, err = app.Predict(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Label != 2 {
		t.Fatalf("post-swap label = %d, want v2's 2 (stale cache?)", resp.Label)
	}
}

func TestSwapModelValidation(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	if _, err := cl.Deploy(&versioned{name: "m", version: 2, label: 1}, nil, qcfg()); err != nil {
		t.Fatal(err)
	}
	// An older version is refused and leaves the deployed one serving.
	if _, err := cl.Deploy(&versioned{name: "m", version: 1, label: 9}, nil, qcfg()); err == nil {
		t.Fatal("downgrade deploy accepted")
	}
	if info, _ := cl.ModelInfo("m"); info.Version != 2 {
		t.Fatalf("version after refused downgrade = %d", info.Version)
	}
	// The deployed version again adds a replica rather than rolling over.
	if _, err := cl.Deploy(&versioned{name: "m", version: 2, label: 9}, nil, qcfg()); err != nil {
		t.Fatal(err)
	}
	if n := len(cl.ReplicaQueues("m")); n != 2 {
		t.Fatalf("replicas after same-version deploy = %d, want 2", n)
	}
}

func TestSwapModelReplacesAllReplicas(t *testing.T) {
	cl := New(Config{CacheSize: -1})
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.Deploy(&versioned{name: "m", version: 1, label: 1}, nil, qcfg()); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(cl.ReplicaQueues("m")); n != 3 {
		t.Fatalf("replicas = %d", n)
	}
	if _, err := cl.Deploy(&versioned{name: "m", version: 2, label: 2}, nil, qcfg()); err != nil {
		t.Fatal(err)
	}
	if n := len(cl.ReplicaQueues("m")); n != 1 {
		t.Fatalf("replicas after swap = %d, want 1", n)
	}
	// Re-deploying the retired version is refused; deploying the new
	// version again adds a replica.
	if _, err := cl.Deploy(&versioned{name: "m", version: 1, label: 1}, nil, qcfg()); err == nil {
		t.Fatal("re-deploy of the retired v1 accepted")
	}
	if _, err := cl.Deploy(&versioned{name: "m", version: 2, label: 2}, nil, qcfg()); err != nil {
		t.Fatal(err)
	}
	if n := len(cl.ReplicaQueues("m")); n != 2 {
		t.Fatalf("replicas after scale-out = %d", n)
	}
}
