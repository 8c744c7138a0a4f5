package core

import (
	"github.com/sealdb/seal/internal/gridsig"
	"github.com/sealdb/seal/internal/invidx"
)

// Scratch is the per-searcher buffer pool the filters collect through. Each
// Searcher owns one, so every slice here is reused query after query and the
// steady-state filter step allocates nothing. Filters must treat the fields
// as free backing storage: truncate (buf[:0]), append, and leave the grown
// slice behind for the next query. Posting lists are read where they lie, so
// no field holds a posting, and verification sweeps the candidate set itself,
// so no field holds a candidate.
type Scratch struct {
	// The resumption state of the query being collected, rebuilt from zero
	// by the first Collect after a CandidateSet Reset (see resume) and kept by
	// the rounds of a top-k descent that follow it.
	//
	// gsig holds the query's grid signature (grid and hash-hybrid filters).
	gsig []gridsig.CellWeight
	// gW holds spatial element weights for prefix selection: gsig's, or
	// every projected token's hits' end to end.
	gW []float64
	// hits holds hierarchical grid projections (the Seal filter), token i's
	// at toks[i].
	hits []gridHit
	toks []span
	// cur holds one cursor per posting list the query has reached, at an
	// ordinal each filter derives from the list's place in its prefixes.
	cur []cursor
	// slackT is the textual slack of the last round, as a bound code; see
	// retest.
	slackT uint16
	// owner and resets identify the candidate set and the Reset the state
	// belongs to.
	owner  *CandidateSet
	resets uint64

	// acc sums per-object weights for the filters that score whole lists
	// (the plain Sig-Filters, keyword-first); sized on first use.
	acc WeightAccumulator
}

// resume starts a Collect into cs and reports whether it continues the last
// one: cs has not been Reset since, so it is the same query at thresholds no
// higher. Otherwise the resumption state is dropped and the Collect starts
// from zero — a fresh query is a descent of one round.
func (s *Scratch) resume(cs *CandidateSet) bool {
	if s.owner == cs && s.resets == cs.resets {
		return true
	}
	s.owner, s.resets = cs, cs.resets
	s.gW, s.hits, s.toks, s.cur = s.gW[:0], s.hits[:0], s.toks[:0], s.cur[:0]
	s.slackT = 0xFFFF // above every code: a first round always tests
	return false
}

// retest records a round's textual slack code and reports whether it fell
// below the last round's, so that a head row a textual bound held back may
// clear it now.
func (s *Scratch) retest(slackT uint16) bool {
	fell := slackT < s.slackT
	s.slackT = slackT
	return fell
}

// cursors returns the cursors of list ordinals [0, n), zeroing the ones no
// round has reached yet.
func (s *Scratch) cursors(n int) []cursor {
	if n > len(s.cur) {
		s.cur = append(s.cur, make([]cursor, n-len(s.cur))...)
	}
	return s.cur[:n]
}

// span is one token's run of Scratch.hits and Scratch.gW.
type span struct{ lo, hi int }

// cursor is how far the rounds of one query have scanned one posting list:
// the head rows [0, rows), of which skipped rows cleared the spatial bound but
// not the textual one. The cutoffs only grow as the thresholds fall, so each
// round scans the rows past the last cutoff, and re-tests the head only when
// it held rows back and the textual slack fell.
type cursor struct {
	rows, skipped int32
	probed        bool
}

// extend moves c to l's cutoff at the spatial slack code slackR and returns
// the rows the head gained, [from, to). The list's first probe and every
// gained row count in st — once a query, however many rounds reach them.
func (c *cursor) extend(l *invidx.List, slackR uint16, st *FilterStats) (from, to int) {
	if !c.probed {
		c.probed = true
		st.ListsProbed++
	}
	from = int(c.rows)
	to = max(l.Cutoff(slackR), from)
	c.rows = int32(to)
	st.PostingsScanned += to - from
	return from, to
}

// scanDual extends c over a dual-bound list and adds each gained row whose
// textual code clears the slack code slackT to cs — and, on retest, every
// earlier head row too, since a lower slackT can pass a row an earlier round
// held back.
func (c *cursor) scanDual(l *invidx.List, slackR, slackT uint16, retest bool, cs *CandidateSet, st *FilterStats) {
	from, to := c.extend(l, slackR, st)
	skipped := int(c.skipped)
	if retest && skipped > 0 {
		from, skipped = 0, 0
	}
	for j := from; j < to; j++ {
		if l.TCode(j) < slackT {
			skipped++
		} else {
			cs.Add(l.Obj(j))
		}
	}
	c.skipped = int32(skipped)
}

// weights returns the scratch's weight accumulator, emptied, for a dataset of
// n objects. It lives here and not on a filter because filters are shared
// between searchers and a scratch is not.
func (s *Scratch) weights(n int) *WeightAccumulator {
	a := &s.acc
	if len(a.sum) < n {
		a.sum, a.mark, a.epoch = make([]float64, n), make([]uint32, n), 0
	}
	a.epoch++
	a.touched = a.touched[:0]
	if a.epoch == 0 {
		clear(a.mark)
		a.epoch = 1
	}
	return a
}

// WeightAccumulator sums per-object weights with epoch-based clearing.
type WeightAccumulator struct {
	sum     []float64
	mark    []uint32
	epoch   uint32
	touched []uint32
}

// Add adds w to obj's sum.
func (a *WeightAccumulator) Add(obj uint32, w float64) {
	if a.mark[obj] != a.epoch {
		a.mark[obj] = a.epoch
		a.sum[obj] = 0
		a.touched = append(a.touched, obj)
	}
	a.sum[obj] += w
}

// Touched returns the objects added to since the accumulator was emptied, in
// first-touch order.
func (a *WeightAccumulator) Touched() []uint32 { return a.touched }

// Sum returns the sum of a touched object.
func (a *WeightAccumulator) Sum(obj uint32) float64 { return a.sum[obj] }
