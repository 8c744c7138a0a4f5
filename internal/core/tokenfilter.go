package core

import (
	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/text"
)

// TokenFilter is algorithm Sig-Filter+ over textual signatures
// (Sections 3.2 and 4.2): one inverted list per token, named (t, 0), postings
// carry the Lemma 3 suffix-weight bounds in the global token order
// (descending idf), and queries probe only their signature prefix with a
// per-list cutoff.
type TokenFilter struct{ sigIndex }

// NewTokenFilter indexes all objects of ds.
func NewTokenFilter(ds *model.Dataset) *TokenFilter {
	var b invidx.Builder
	var sig []text.TokenID
	var bounds []float64
	for obj := 0; obj < ds.Len(); obj++ {
		sig, bounds = tokenSignature(ds, model.ObjectID(obj), sig, bounds)
		for i, t := range sig {
			b.Add(tokenKey(t), uint32(obj), bounds[i])
		}
	}
	return &TokenFilter{sigIndex{ds, compress(b.Build()), FilterSpec{Kind: "token"}}}
}

// tokenKey names token t's list (t, 0): the token is the key's group.
func tokenKey(t text.TokenID) uint64 { return uint64(t) << 32 }

// Name implements Filter.
func (f *TokenFilter) Name() string { return "TokenFilter" }

// Collect implements Filter. Objects can reach textual similarity τT only if
// the weight of their tokens shared with the query is at least
// cT = τT · Σ_{t∈q.T} w(t); prefix filtering retrieves exactly the objects
// that share a prefix element with the query's prefix. The query's
// signature-ordered tokens and weights are precompiled on the Query itself,
// the lists are read in place, and only the list cursors inside scr are used,
// so the scan allocates nothing.
func (f *TokenFilter) Collect(q *model.Query, cs *CandidateSet, st *FilterStats, stop func() bool, scr *Scratch) {
	_, cT := Thresholds(q)
	if cT <= 0 {
		return
	}
	sig := q.SigTokens
	p := invidx.PrefixLen(q.SigWeights, cT)
	slack := invidx.Code(invidx.Slack(cT))
	scr.resume(cs)
	cur := scr.cursors(p)
	for i, t := range sig[:p] {
		if stop != nil && stop() {
			return
		}
		l := f.idx.Probe(tokenKey(t))
		if l.Len() == 0 {
			continue
		}
		from, to := cur[i].extend(&l, slack, st)
		for j := from; j < to; j++ {
			cs.Add(l.Obj(j))
		}
	}
}

// PlainTokenFilter is the baseline Sig-Filter of Figure 3 over textual
// signatures: it probes the full inverted list of every query token,
// accumulates the exact signature similarity Σ_{t∈S(q)∩S(o)} w(t), and keeps
// the objects reaching cT. It exists to quantify what threshold-aware
// pruning buys (and as a tight reference in tests: its candidates are a
// subset of TokenFilter's, and still a superset of the answers).
type PlainTokenFilter struct {
	ds  *model.Dataset
	idx *invidx.Index
}

// NewPlainTokenFilter indexes all objects of ds with plain token lists.
func NewPlainTokenFilter(ds *model.Dataset) *PlainTokenFilter {
	var b invidx.Builder
	for obj := 0; obj < ds.Len(); obj++ {
		for _, t := range ds.Tokens(model.ObjectID(obj)) {
			b.Add(tokenKey(t), uint32(obj), ds.TokenWeight(t))
		}
	}
	return &PlainTokenFilter{ds: ds, idx: b.Build()}
}

// Name implements Filter.
func (f *PlainTokenFilter) Name() string { return "PlainTokenFilter" }

// SizeBytes implements Filter.
func (f *PlainTokenFilter) SizeBytes() int64 { return f.idx.SizeBytes() }

// Collect implements Filter; stop is polled before each list.
func (f *PlainTokenFilter) Collect(q *model.Query, cs *CandidateSet, st *FilterStats, stop func() bool, scr *Scratch) {
	_, cT := Thresholds(q)
	if cT <= 0 {
		return
	}
	acc := f.Accumulate(q, st, stop, scr)
	if acc == nil {
		return
	}
	slack := invidx.Slack(cT)
	for _, obj := range acc.Touched() {
		if acc.Sum(obj) >= slack {
			cs.Add(obj)
		}
	}
}

// Accumulate merges the full (t, 0) list of every query token into scr's
// weight accumulator, which then holds, for every object sharing a token with
// q, the weight Σ_{t∈S(q)∩S(o)} w(t) of the tokens it shares. It returns nil
// when stop, polled before each list, ends the merge early: the sums are then
// partial. Keyword-first (internal/baseline) gates the same sums on the exact
// weighted Jaccard.
func (f *PlainTokenFilter) Accumulate(q *model.Query, st *FilterStats, stop func() bool, scr *Scratch) *WeightAccumulator {
	acc := scr.weights(f.ds.Len())
	for _, t := range q.Tokens {
		if stop != nil && stop() {
			return nil
		}
		objs, _, _ := f.idx.List(tokenKey(t))
		if len(objs) == 0 {
			continue
		}
		st.ListsProbed++
		st.PostingsScanned += len(objs)
		w := f.ds.TokenWeight(t)
		for _, obj := range objs {
			acc.Add(obj, w)
		}
	}
	return acc
}
