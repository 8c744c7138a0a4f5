package main

// A linear-scan oracle written from the README's two formulas, sharing no
// code with the engine:
//
//	simR(q, o) = |q.R ∩ o.R| / |q.R ∪ o.R|          (rectangle Jaccard)
//	simT(q, o) = Σ_{t∈q∩o} w(t) / Σ_{t∈q∪o} w(t)    (weighted Jaccard)
//
// with w(t) read back from the index under test (Index.TokenWeight), so the
// oracle checks the search, not the idf arithmetic.

import (
	"fmt"
	"math"
	"sort"

	seal "github.com/sealdb/seal"
)

// simTol is how closely reported similarities must agree with the oracle's,
// and the width of the band around a threshold inside which an object may be
// either in or out (the two sides sum weights in different orders).
const simTol = 1e-9

type oracle struct {
	objects []seal.Object
	weight  map[string]float64
	totalW  []float64 // Σ w(t) over each object's tokens
}

func newOracle(objects []seal.Object, ix *seal.Index) (*oracle, error) {
	o := &oracle{objects: objects, weight: make(map[string]float64), totalW: make([]float64, len(objects))}
	for i, obj := range objects {
		for _, t := range obj.Tokens {
			w, ok := o.weight[t]
			if !ok {
				if w, ok = ix.TokenWeight(t); !ok {
					return nil, fmt.Errorf("oracle: index has no weight for indexed token %q", t)
				}
				o.weight[t] = w
			}
			o.totalW[i] += w
		}
	}
	return o, nil
}

// match is one answer as the daemon reported it.
type match struct {
	ID    int     `json:"id"`
	SimR  float64 `json:"sim_r"`
	SimT  float64 `json:"sim_t"`
	Score float64 `json:"score"`
}

func rectJaccard(a, b seal.Rect) float64 {
	w := math.Min(a.MaxX, b.MaxX) - math.Max(a.MinX, b.MinX)
	h := math.Min(a.MaxY, b.MaxY) - math.Max(a.MinY, b.MinY)
	if w <= 0 || h <= 0 {
		return 0
	}
	inter := w * h
	areaA := (a.MaxX - a.MinX) * (a.MaxY - a.MinY)
	areaB := (b.MaxX - b.MinX) * (b.MaxY - b.MinY)
	return inter / (areaA + areaB - inter)
}

// query is a request compiled for the scan: deduplicated tokens and their
// total weight.
type oracleQuery struct {
	region seal.Rect
	tokens map[string]float64
	totalW float64
}

func (o *oracle) compile(req seal.Request) (oracleQuery, error) {
	q := oracleQuery{region: req.Region, tokens: make(map[string]float64, len(req.Tokens))}
	for _, t := range req.Tokens {
		if _, dup := q.tokens[t]; dup {
			continue
		}
		w, ok := o.weight[t]
		if !ok {
			// The engine prices unknown terms with a private constant; the
			// generators only draw indexed terms, so this is a harness bug.
			return q, fmt.Errorf("oracle: query token %q is not in the corpus", t)
		}
		q.tokens[t] = w
		q.totalW += w
	}
	return q, nil
}

func (o *oracle) sims(q oracleQuery, id int) (simR, simT float64) {
	obj := o.objects[id]
	simR = rectJaccard(q.region, obj.Region)
	common := 0.0
	for _, t := range obj.Tokens {
		common += q.tokens[t] // 0 for tokens outside the query
	}
	if union := q.totalW + o.totalW[id] - common; union > 0 {
		simT = common / union
	}
	return simR, simT
}

// checkSims verifies the similarities (and score, when ranked) reported for
// every returned match and rejects duplicate or out-of-range IDs.
func (o *oracle) checkSims(q oracleQuery, got []match, alpha float64, ranked bool) error {
	seen := make(map[int]bool, len(got))
	for _, m := range got {
		if m.ID < 0 || m.ID >= len(o.objects) {
			return fmt.Errorf("match ID %d out of range", m.ID)
		}
		if seen[m.ID] {
			return fmt.Errorf("match ID %d returned twice", m.ID)
		}
		seen[m.ID] = true
		simR, simT := o.sims(q, m.ID)
		if math.Abs(simR-m.SimR) > simTol || math.Abs(simT-m.SimT) > simTol {
			return fmt.Errorf("object %d: reported sims (%g, %g), oracle (%g, %g)", m.ID, m.SimR, m.SimT, simR, simT)
		}
		if ranked {
			if score := alpha*simR + (1-alpha)*simT; math.Abs(score-m.Score) > simTol {
				return fmt.Errorf("object %d: reported score %g, oracle %g", m.ID, m.Score, score)
			}
		}
	}
	return nil
}

// thresholdSets scans every object: must holds the IDs clearly above both
// thresholds, may additionally those within simTol of one.
func (o *oracle) thresholdSets(q oracleQuery, tauR, tauT float64) (must, may map[int]bool) {
	must, may = make(map[int]bool), make(map[int]bool)
	for id := range o.objects {
		simR, simT := o.sims(q, id)
		if simR >= tauR-simTol && simT >= tauT-simTol {
			may[id] = true
			if simR >= tauR+simTol && simT >= tauT+simTol {
				must[id] = true
			}
		}
	}
	return must, may
}

// checkThreshold requires got to be exactly the threshold answer. With
// limit > 0 (an arrival-order stream) got must instead be any limit distinct
// true matches, or all of them when fewer exist.
func (o *oracle) checkThreshold(req seal.Request, got []match, limit int) error {
	q, err := o.compile(req)
	if err != nil {
		return err
	}
	if err := o.checkSims(q, got, 0, false); err != nil {
		return err
	}
	must, may := o.thresholdSets(q, req.TauR, req.TauT)
	inMust := 0
	for _, m := range got {
		if !may[m.ID] {
			return fmt.Errorf("object %d returned but is below the thresholds", m.ID)
		}
		if must[m.ID] {
			inMust++
		}
	}
	if limit > 0 {
		if len(got) > limit {
			return fmt.Errorf("%d matches returned over limit %d", len(got), limit)
		}
		if len(got) < limit && inMust < len(must) {
			return fmt.Errorf("stream ended with %d matches under limit %d while %d true matches were never sent", len(got), limit, len(must)-inMust)
		}
		return nil
	}
	if inMust != len(must) {
		return fmt.Errorf("%d of %d true matches missing", len(must)-inMust, len(must))
	}
	return nil
}

// checkRanked requires got to be a valid top-k: every returned object clears
// the floors, the list is in descending score order, it is as long as the
// eligible set allows, and no unreturned object outscores the last returned.
func (o *oracle) checkRanked(req seal.Request, got []match) error {
	q, err := o.compile(req)
	if err != nil {
		return err
	}
	if err := o.checkSims(q, got, req.Alpha, true); err != nil {
		return err
	}
	floorR, floorT := req.FloorR, req.FloorT
	if floorR == 0 {
		floorR = 0.05
	}
	if floorT == 0 {
		floorT = 0.05
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Score > got[j].Score }) {
		return fmt.Errorf("ranked matches not in descending score order")
	}
	returned := make(map[int]bool, len(got))
	for _, m := range got {
		returned[m.ID] = true
	}
	must, may := o.thresholdSets(q, floorR, floorT)
	for _, m := range got {
		if !may[m.ID] {
			return fmt.Errorf("object %d returned but is below the floors", m.ID)
		}
	}
	if len(got) > req.K {
		return fmt.Errorf("%d matches returned for k=%d", len(got), req.K)
	}
	if len(got) < req.K && len(got) < len(must) {
		return fmt.Errorf("%d matches returned for k=%d while %d objects clear the floors", len(got), req.K, len(must))
	}
	if len(got) == 0 {
		return nil
	}
	kth := got[len(got)-1].Score
	for id := range must {
		if returned[id] {
			continue
		}
		simR, simT := o.sims(q, id)
		if score := req.Alpha*simR + (1-req.Alpha)*simT; score > kth+simTol {
			return fmt.Errorf("object %d (score %g) outscores the last returned match (%g) but was not returned", id, score, kth)
		}
	}
	return nil
}

// check dispatches on the request's shape.
func (o *oracle) check(req seal.Request, got []match, limit int) error {
	if req.Ranked() {
		return o.checkRanked(req, got)
	}
	return o.checkThreshold(req, got, limit)
}
