package main

import (
	"context"
	"strings"
	"testing"

	seal "github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/gen"
)

// oracleFixture builds a small corpus, its index and the oracle over both.
func oracleFixture(t *testing.T) (*seal.Index, *oracle, []gen.QuerySpec) {
	t.Helper()
	ds, objects, err := generateDataset(1500)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := seal.Build(objects, seal.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	orc, err := newOracle(objects, ix)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := gen.Queries(ds, gen.LargeRegionConfig(60, 7))
	if err != nil {
		t.Fatal(err)
	}
	return ix, orc, specs
}

func matchesOf(res *seal.Results) []match {
	out := make([]match, len(res.Matches))
	for i, m := range res.Matches {
		out[i] = match{ID: m.ID, SimR: m.SimR, SimT: m.SimT, Score: m.Score}
	}
	return out
}

func TestOracleAgreesWithIndex(t *testing.T) {
	ix, orc, specs := oracleFixture(t)
	ctx := context.Background()
	nonEmpty := 0
	for i, s := range specs {
		req := thresholdRequest(s, 0.01)
		res, err := ix.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) > 0 {
			nonEmpty++
		}
		if err := orc.check(req, matchesOf(res), 0); err != nil {
			t.Errorf("threshold query %d: %v", i, err)
		}

		ranked := req
		ranked.TauR, ranked.TauT, ranked.K, ranked.Alpha = 0, 0, 5, 0.5
		res, err = ix.Query(ctx, ranked)
		if err != nil {
			t.Fatal(err)
		}
		if err := orc.check(ranked, matchesOf(res), 0); err != nil {
			t.Errorf("ranked query %d: %v", i, err)
		}

		res, err = ix.Query(ctx, req, seal.Limit(3), seal.OrderByArrival())
		if err != nil {
			t.Fatal(err)
		}
		if err := orc.check(req, matchesOf(res), 3); err != nil {
			t.Errorf("limited query %d: %v", i, err)
		}
	}
	if nonEmpty < len(specs)/2 {
		t.Fatalf("only %d of %d queries matched anything: the fixture checks nothing", nonEmpty, len(specs))
	}
}

// TestOracleRejectsWrongAnswers tampers with a correct answer in each way the
// gate must catch.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	ix, orc, specs := oracleFixture(t)
	ctx := context.Background()
	var req seal.Request
	var good []match
	for _, s := range specs {
		req = thresholdRequest(s, 0.01)
		res, err := ix.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if good = matchesOf(res); len(good) >= 3 {
			break
		}
	}
	if len(good) < 3 {
		t.Fatal("no query with at least 3 matches in the fixture")
	}
	tamper := func(f func(ms []match) []match) []match {
		return f(append([]match(nil), good...))
	}
	cases := []struct {
		name string
		got  []match
		want string
	}{
		{"missing match", tamper(func(ms []match) []match { return ms[1:] }), "missing"},
		{"wrong similarity", tamper(func(ms []match) []match { ms[0].SimT += 1e-6; return ms }), "reported sims"},
		{"duplicate", tamper(func(ms []match) []match { return append(ms, ms[0]) }), "twice"},
		{"below threshold", tamper(func(ms []match) []match {
			// Some object that is not an answer, reported with its true sims.
			in := map[int]bool{}
			for _, m := range ms {
				in[m.ID] = true
			}
			q, _ := orc.compile(req)
			for id := range orc.objects {
				if !in[id] {
					simR, simT := orc.sims(q, id)
					return append(ms, match{ID: id, SimR: simR, SimT: simT})
				}
			}
			return ms
		}), "below the thresholds"},
	}
	for _, c := range cases {
		err := orc.check(req, c.got, 0)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want one mentioning %q", c.name, err, c.want)
		}
	}

	// Ranked: dropping the best match leaves an unreturned object that
	// outscores the last returned one.
	ranked := req
	ranked.TauR, ranked.TauT, ranked.K, ranked.Alpha = 0, 0, 2, 0.5
	res, err := ix.Query(ctx, ranked)
	if err != nil {
		t.Fatal(err)
	}
	top := matchesOf(res)
	if len(top) != 2 {
		t.Fatalf("top-2 returned %d matches", len(top))
	}
	bad := []match{top[1]}
	if err := orc.check(ranked, bad, 0); err == nil {
		t.Error("ranked answer missing its best match was accepted")
	}
	if err := orc.check(req, good[:2], 3); err == nil {
		t.Error("a stream that stopped under its limit with matches unsent was accepted")
	}
}
