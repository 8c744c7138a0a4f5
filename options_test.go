package seal_test

import (
	"math"
	"strings"
	"testing"

	seal "github.com/sealdb/seal"
)

func TestInvalidGranularity(t *testing.T) {
	if _, err := seal.Build(paperObjects(), seal.WithMethod(seal.MethodGridFilter), seal.WithGranularity(0)); err == nil {
		t.Fatal("granularity 0 should fail the build")
	}
}

func TestUnknownMethod(t *testing.T) {
	if _, err := seal.Build(paperObjects(), seal.WithMethod(seal.Method(99))); err == nil {
		t.Fatal("unknown method should fail")
	}
}

func TestMethodNames(t *testing.T) {
	// Every method reports a stable, human-readable name through Stats.
	wants := map[seal.Method]string{
		seal.MethodSeal:        "Seal",
		seal.MethodTokenFilter: "TokenFilter",
		seal.MethodGridFilter:  "GridFilter",
		seal.MethodHybridHash:  "HybridFilter",
	}
	for m, want := range wants {
		ix, err := seal.Build(paperObjects(), seal.WithMethod(m), seal.WithGranularity(4))
		if err != nil {
			t.Fatalf("method %d: %v", m, err)
		}
		if got := ix.Stats().Method; !strings.HasPrefix(got, want) {
			t.Errorf("method %d name = %q, want prefix %q", m, got, want)
		}
	}
}

func TestAutoGranularityValidation(t *testing.T) {
	// An invalid sample query surfaces as a build error.
	bad := []seal.Request{{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Tokens: []string{"x"}, TauR: 0, TauT: 0.5}}
	if _, err := seal.Build(paperObjects(), seal.WithAutoGranularity(bad, 4, 1)); err == nil {
		t.Fatal("invalid auto-granularity sample should fail")
	}
	// An empty sample is equally rejected.
	if _, err := seal.Build(paperObjects(), seal.WithAutoGranularity(nil, 4, 1)); err == nil {
		t.Fatal("empty auto-granularity sample should fail")
	}
	// So is a benefit threshold that is not positive — NaN included, which
	// a `<= 0` check lets through.
	good := []seal.Request{paperQuery()}
	for _, benefit := range []float64{0, -1, math.NaN()} {
		if _, err := seal.Build(paperObjects(), seal.WithAutoGranularity(good, 6, benefit)); err == nil {
			t.Fatalf("auto-granularity benefit %g should fail", benefit)
		}
	}
}

func TestHybridBuckets(t *testing.T) {
	ix, err := seal.Build(paperObjects(),
		seal.WithMethod(seal.MethodHybridHash),
		seal.WithGranularity(4),
		seal.WithHashBuckets(16))
	if err != nil {
		t.Fatal(err)
	}
	matches, err := answer(ix, paperQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].ID != 1 {
		t.Fatalf("bucketed hybrid matches = %v, want [o2]", matches)
	}
	if !strings.Contains(ix.Stats().Method, "b=16") {
		t.Errorf("method name should mention bucket count: %q", ix.Stats().Method)
	}
}

func TestSealTuning(t *testing.T) {
	ix, err := seal.Build(paperObjects(),
		seal.WithMethod(seal.MethodSeal),
		seal.WithMaxLevel(5),
		seal.WithGridBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	matches, err := answer(ix, paperQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].ID != 1 {
		t.Fatalf("tuned Seal matches = %v, want [o2]", matches)
	}
}
