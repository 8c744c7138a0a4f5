package bench

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/testutil"
)

// smokeEnv is shared across tests in this package so datasets and indexes
// build once.
var smokeEnvInstance *Env

func smokeEnv(t *testing.T) *Env {
	t.Helper()
	if smokeEnvInstance == nil {
		smokeEnvInstance = NewEnv(SmokeConfig)
	}
	return smokeEnvInstance
}

// TestAllExperimentsRun executes every experiment at smoke scale and checks
// the output contains the expected structure.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipping in -short mode")
	}
	env := smokeEnv(t)
	for _, exp := range Experiments {
		exp := exp
		t.Run(exp.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := exp.Run(&buf, env); err != nil {
				t.Fatalf("%s failed: %v", exp.Name, err)
			}
			out := buf.String()
			if len(out) < 50 {
				t.Fatalf("%s produced almost no output:\n%s", exp.Name, out)
			}
			if !strings.Contains(out, "#") && !strings.Contains(out, "(") {
				t.Fatalf("%s output lacks headers:\n%s", exp.Name, out)
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig16"); !ok {
		t.Fatal("fig16 should exist")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("unknown experiment should not resolve")
	}
}

func TestEnvValidation(t *testing.T) {
	env := smokeEnv(t)
	if _, err := env.Dataset("mars"); err == nil {
		t.Error("unknown dataset should error")
	}
	if _, err := env.Workload("twitter", "medium"); err == nil {
		t.Error("unknown workload should error")
	}
	if _, err := env.Filter("twitter", FilterSpec{Kind: "quantum"}); err == nil {
		t.Error("unknown filter kind should error")
	}
}

// TestFilterKindsAgree holds every filter the experiments compare — the
// signature families, their plain Sig-Filter variants, and the §2.3
// baselines of Figures 16–17 with the full scan — to the brute-force answer:
// a searcher over each returns exactly the objects, and the similarities, of
// a linear scan.
func TestFilterKindsAgree(t *testing.T) {
	const vocab = 40
	rng := rand.New(rand.NewSource(28))
	ds, err := testutil.RandomDataset(rng, 400, vocab)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(SmokeConfig)
	specs := []FilterSpec{
		{Kind: "token"}, {Kind: "plaintoken"},
		{Kind: "grid", P: 64}, {Kind: "plaingrid", P: 64},
		{Kind: "hybrid", P: 64}, {Kind: "hybrid", P: 64, Buckets: 97},
		{Kind: "seal"},
		{Kind: "keyword"}, {Kind: "spatial"}, {Kind: "irtree"}, {Kind: "scan"},
	}
	queries := make([]*model.Query, 200)
	wants := make([][]model.ObjectID, len(queries))
	answered := 0
	for qi := range queries {
		q, err := testutil.RandomQuery(rng, ds, vocab)
		if err != nil {
			t.Fatal(err)
		}
		queries[qi], wants[qi] = q, testutil.BruteForceAnswers(ds, q)
		answered += len(wants[qi])
	}
	if answered == 0 {
		t.Fatal("no query has an answer; the test compares nothing")
	}
	for _, spec := range specs {
		f, err := env.FilterFor(ds, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		t.Run(f.Name(), func(t *testing.T) {
			s := core.NewSearcher(ds, f)
			for qi, q := range queries {
				want := wants[qi]
				got, _ := s.Search(q, nil, 0)
				if len(got) != len(want) {
					t.Fatalf("query %d: %d matches, want %d", qi, len(got), len(want))
				}
				for j, m := range got {
					if m.ID != want[j] || m.SimR != ds.SimR(q, m.ID) || m.SimT != ds.SimT(q, m.ID) {
						t.Fatalf("query %d: match %d = %+v, want object %d", qi, j, m, want[j])
					}
				}
			}
		})
	}
}

func TestFilterCaching(t *testing.T) {
	env := smokeEnv(t)
	a, err := env.Filter("twitter", FilterSpec{Kind: "token"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.Filter("twitter", FilterSpec{Kind: "token"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("filter not cached")
	}
}
