package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/gridtree"
	"github.com/sealdb/seal/internal/hss"
	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/text"
)

// HierarchicalFilter is the full SEAL filter: Hybrid-Sig-Filter+ over
// hierarchical hybrid signatures (Section 5.2). For every token t the
// HSS-Greedy algorithm selects at most GridBudget hierarchical grids from a
// grid tree, sized to the spatial distribution of the objects containing t;
// hybrid elements are (t, grid) pairs with dual threshold bounds. Rare
// tokens get coarse grids (their lists are short anyway), dense tokens get
// fine grids where their objects cluster — the judicious selection the
// paper credits for SEAL's headline performance.
type HierarchicalFilter struct {
	sigIndex
	tree *gridtree.Tree
	// locs locates every token's selected grids in idx's key column; a
	// projection orders them by idx's list lengths (see sortHits).
	locs *tokenLocators
}

// HierarchicalConfig parameterizes NewHierarchicalFilter.
type HierarchicalConfig struct {
	// MaxLevel is the grid-tree depth; level l partitions the space into
	// 2^l × 2^l grids. The finest level bounds signature precision.
	MaxLevel int
	// GridBudget is the average m_t: the per-token grid budgets are
	// allocated proportionally to each token's posting-list length, so that
	// Σ_t m_t ≈ GridBudget × #tokens (the index-size constraint of the HSS
	// problem). Frequent tokens — whose objects spread over many regions —
	// receive large budgets and refine deeply; rare tokens stay coarse,
	// which costs nothing because their lists are short anyway.
	GridBudget int
}

// DefaultHierarchicalConfig uses finest grids below the uniform 1024
// granularity (level 12 = 4096², so hot clusters refine past it) and an
// average per-token budget balancing index size against filtering power.
var DefaultHierarchicalConfig = HierarchicalConfig{MaxLevel: 12, GridBudget: 8}

// budget caps keeping a single token's HSS run tractable.
const (
	minTokenBudget = 1
	maxTokenBudget = 8192
)

// NewHierarchicalFilter builds the SEAL index over ds.
func NewHierarchicalFilter(ds *model.Dataset, cfg HierarchicalConfig) (*HierarchicalFilter, error) {
	f, err := newHierarchicalFilter(ds, &cfg)
	if err != nil {
		return nil, err
	}
	tree := f.tree

	// Token-major posting accumulation: I(t) with each object's textual
	// bound c^T_t(o) (suffix weight at t's position in o's ordered tokens),
	// laid out as one array sliced per token (count, then fill).
	vocab := ds.Vocab()
	starts := make([]int, vocab.Len()+1)
	for obj := 0; obj < ds.Len(); obj++ {
		for _, t := range ds.Tokens(model.ObjectID(obj)) {
			starts[t+1]++
		}
	}
	presentTokens := 0
	for t := 0; t < vocab.Len(); t++ {
		if starts[t+1] > 0 {
			presentTokens++
		}
		starts[t+1] += starts[t]
	}
	totalPostings := starts[vocab.Len()]
	postings := make([]tokenPosting, totalPostings)
	fill := slices.Clone(starts[:vocab.Len()])
	var tsig []text.TokenID
	var tB []float64
	for obj := 0; obj < ds.Len(); obj++ {
		tsig, tB = tokenSignature(ds, model.ObjectID(obj), tsig, tB)
		for i, t := range tsig {
			postings[fill[t]] = tokenPosting{obj: uint32(obj), tBound: tB[i]}
			fill[t]++
		}
	}

	// Distribute the global element budget over tokens proportionally to
	// their posting counts: m_t = GridBudget · |I(t)| / mean|I(t)|.
	meanPostings := float64(totalPostings) / float64(presentTokens)

	// Tokens are independent, so HSS selection and per-object signature
	// generation fan out across CPUs, each worker taking the next token and
	// appending that token's finished, coded lists to its own chunks. Which
	// worker got which token leaves no trace: a SEAL key is token<<32 | node,
	// token-major, so the runs' token spans, concatenated in token order, are
	// the served index.
	spans := make([]hierSpan, vocab.Len())
	workers := make([]*hierWorker, runtime.GOMAXPROCS(0))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wk := new(hierWorker)
		workers[w] = wk
		wg.Add(1)
		go func() {
			defer wg.Done()
			for wk.err == nil {
				t := int(next.Add(1)) - 1
				if t >= vocab.Len() {
					return
				}
				tp := postings[starts[t]:starts[t+1]]
				if len(tp) == 0 {
					continue
				}
				mt := int(float64(cfg.GridBudget) * float64(len(tp)) / meanPostings)
				mt = min(max(mt, minTokenBudget), maxTokenBudget)
				spans[t], wk.err = wk.buildToken(ds, tree, text.TokenID(t), tp, mt)
				spans[t].worker = uint32(w)
			}
		}()
	}
	wg.Wait()

	for _, wk := range workers {
		if wk.err != nil {
			return nil, wk.err
		}
	}
	runs := make([]invidx.CodedRun, 0, presentTokens)
	for t, sp := range spans {
		if sp.list0 == sp.list1 {
			continue
		}
		runs = append(runs, workers[sp.worker].run(text.TokenID(t), sp))
	}
	f.idx = invidx.FromCodedRuns(vocab.Len(), runs)
	f.locs, err = deriveLocators(tree, vocab.Len(), f.idx)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// tokenPosting is one entry of I(t): an object holding t and its textual
// bound there.
type tokenPosting struct {
	obj    uint32
	tBound float64
}

// hierSpan locates one token's lists inside a chunk of the worker that built
// them; list0 == list1 when the token has none.
type hierSpan struct {
	worker, chunk      uint32
	list0, list1       uint32
	posting0, posting1 uint32
}

// chunkRows is the least number of postings a worker's chunk holds, and
// chunkRows/2 the least number of lists: a list averages about 3.5 postings,
// so the posting lanes fill first.
const chunkRows = 64 << 10

// hierEntry is one hybrid posting of the token being built, placed in its
// list but not yet ordered there: its exact spatial bound, which orders it,
// and its textual bound already coded, which is its region's.
type hierEntry struct {
	rBound float64
	obj    uint32
	tCode  uint16
}

// before is a list's order: descending spatial bound, ties by ascending
// object. An object posts to a list at most once, so the order is total.
func (a *hierEntry) before(b *hierEntry) bool {
	if a.rBound != b.rBound {
		return a.rBound > b.rBound
	}
	return a.obj < b.obj
}

// sortEntries puts a list in its order. The order is total, so any sort gives
// the one result: a short list sorts by insertion, a longer one by quicksort
// around a median of three, handing a slice that recurses too deep to
// slices.SortFunc, whose worst case is n log n. Typed, the comparisons inline
// where slices.SortFunc makes a call each.
func sortEntries(list []hierEntry) {
	for depth := 2 * bits.Len(uint(len(list))); len(list) > shortSort; depth-- {
		if depth == 0 {
			slices.SortFunc(list, func(a, b hierEntry) int {
				if a.before(&b) {
					return -1
				}
				return 1 // never equal: the order is total
			})
			return
		}
		p := partitionEntries(list)
		if p < len(list)/2 {
			sortEntries(list[:p])
			list = list[p+1:]
		} else {
			sortEntries(list[p+1:])
			list = list[:p]
		}
	}
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && list[j].before(&list[j-1]); j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
	}
}

// partitionEntries partitions list, of at least three entries, around the
// median of its first, middle and last and returns the pivot's position:
// every entry before it comes first in the order, every entry after it later.
func partitionEntries(list []hierEntry) int {
	n, m := len(list)-1, len(list)/2
	if list[m].before(&list[0]) {
		list[0], list[m] = list[m], list[0]
	}
	if list[n].before(&list[m]) {
		list[m], list[n] = list[n], list[m]
		if list[m].before(&list[0]) {
			list[0], list[m] = list[m], list[0]
		}
	}
	list[m], list[n] = list[n], list[m] // the median is the pivot, at the end
	p := 0
	for i := range list[:n] {
		if list[i].before(&list[n]) {
			list[i], list[p] = list[p], list[i]
			p++
		}
	}
	list[p], list[n] = list[n], list[p]
	return p
}

// hierWorker is one build goroutine's state: the scratch every token reuses
// and the chunks that collect the finished lists of all its tokens, their
// bounds already coded as the index serves them. Each chunk's lanes are
// allocated once, at their full capacity, and a token's lists lie in one
// chunk, the last, so the lanes never grow by copying.
type hierWorker struct {
	sel     hss.Selector
	rects   []geo.Rect
	hits    []gridHit
	gB      []float64
	entries []hierEntry
	chunks  []invidx.CodedRun
	err     error

	// The token being built: its grids and, per grid, its count, and every
	// region's hits on the grids, region i's ending at hitEnd[i].
	nodes  []uint32
	counts []int32
	hitEnd []int
}

// buildToken selects token t's grids, generates every posting of I(t)'s
// spatial signature over them, appends t's lists to the worker's last chunk
// in index order — ascending grid node, and within a list descending spatial
// bound, ties by ascending object — and reports where they lie. Each list is
// sorted by its exact bounds, then appended with both bounds coded
// (invidx.Code), so the lists are already in the served form. A token none
// of whose regions overlaps the space gets no lists.
//
// The grids' global order takes count(g) as the number of regions that post
// to g, i.e. the length of g's list, not the count HSS selected with: the two
// agree except where a region touches a cell by a rounding sliver, and the
// list lengths are what a query reads off the index (gridLocator.project), so
// bounds and queries share one order by construction. That takes two passes:
// project everything to learn the lengths, then bound each region's hits in
// global order. The lengths also lay the lists out, so the second pass puts
// each posting in its list and only each list is sorted, by bound.
func (wk *hierWorker) buildToken(ds *model.Dataset, tree *gridtree.Tree, t text.TokenID, tp []tokenPosting, mt int) (hierSpan, error) {
	wk.rects = wk.rects[:0]
	for _, p := range tp {
		wk.rects = append(wk.rects, ds.Region(model.ObjectID(p.obj)))
	}
	grids, err := wk.sel.Select(tree, wk.rects, mt)
	if err != nil {
		return hierSpan{}, fmt.Errorf("core: HSS for token %d: %w", t, err)
	}
	if len(grids) == 0 {
		return hierSpan{}, nil
	}
	slices.SortFunc(grids, func(a, b hss.Grid) int { return cmp.Compare(a.Node, b.Node) })
	wk.nodes, wk.counts = wk.nodes[:0], wk.counts[:0]
	for _, g := range grids {
		wk.nodes = append(wk.nodes, uint32(g.Node))
		wk.counts = append(wk.counts, 0)
	}
	loc := gridLocator{tree: tree, nodes: wk.nodes} // a hit's list is its node's index
	wk.hits, wk.hitEnd = wk.hits[:0], wk.hitEnd[:0]
	for _, r := range wk.rects {
		wk.hits = loc.appendHits(r, wk.hits)
		wk.hitEnd = append(wk.hitEnd, len(wk.hits))
	}
	for _, h := range wk.hits {
		wk.counts[h.list]++
	}
	for j := range wk.hits {
		wk.hits[j].n = wk.counts[wk.hits[j].list]
	}
	// Every list's length is known, so each posting goes straight to its
	// list's next slot. next is counts turned into each list's start in
	// entries; list l fills entries from next[l] on, in the order tp gives —
	// ascending object — and ends where list l+1 starts. The layout below
	// turns next back into the counts.
	next := wk.counts
	total := int32(0)
	for l, c := range next {
		next[l] = total
		total += c
	}
	wk.entries = slices.Grow(wk.entries[:0], int(total))[:total]

	// Per-object spatial signature over this token's grid set.
	lo := 0
	for i, p := range tp {
		hits := wk.hits[lo:wk.hitEnd[i]]
		lo = wk.hitEnd[i]
		sortHits(hits)
		wk.gB = wk.gB[:0]
		for _, h := range hits {
			wk.gB = append(wk.gB, h.w)
		}
		invidx.SuffixBounds(wk.gB, wk.gB)
		tCode := invidx.Code(p.tBound)
		for j, h := range hits {
			wk.entries[next[h.list]] = hierEntry{obj: p.obj, rBound: wk.gB[j], tCode: tCode}
			next[h.list]++
		}
	}
	// A grid only rounding slivers reach holds no posting and gets no list.
	run, record := wk.chunk(int(total), len(wk.nodes)), recordCoded
	span := hierSpan{chunk: uint32(len(wk.chunks) - 1), list0: uint32(len(run.Nodes)), posting0: uint32(len(run.Objs))}
	lo = 0
	for l, end := range next {
		list := wk.entries[lo:end]
		lo = int(end)
		wk.counts[l] = int32(len(list))
		if len(list) == 0 {
			continue
		}
		sortEntries(list)
		run.Nodes = append(run.Nodes, wk.nodes[l])
		run.Lens = append(run.Lens, uint32(len(list)))
		for _, e := range list {
			run.Objs = append(run.Objs, e.obj)
			run.Codes = append(run.Codes, invidx.Code(e.rBound))
			run.TCodes = append(run.TCodes, e.tCode)
			if record != nil {
				k, _ := slices.BinarySearchFunc(tp, e.obj, func(p tokenPosting, obj uint32) int { return cmp.Compare(p.obj, obj) })
				record(uint64(t)<<32|uint64(wk.nodes[l]), e.obj, e.rBound, tp[k].tBound)
			}
		}
	}
	span.list1, span.posting1 = uint32(len(run.Nodes)), uint32(len(run.Objs))
	return span, nil
}

// run is token t's lists, which the worker put where sp says.
func (wk *hierWorker) run(t text.TokenID, sp hierSpan) invidx.CodedRun {
	c := &wk.chunks[sp.chunk]
	return invidx.CodedRun{
		Group:  uint32(t),
		Nodes:  c.Nodes[sp.list0:sp.list1],
		Lens:   c.Lens[sp.list0:sp.list1],
		Objs:   c.Objs[sp.posting0:sp.posting1],
		Codes:  c.Codes[sp.posting0:sp.posting1],
		TCodes: c.TCodes[sp.posting0:sp.posting1],
	}
}

// chunk returns the worker's last chunk once it has room for postings more
// postings in lists more lists, first starting a new one, of at least
// chunkRows postings, when it has not.
func (wk *hierWorker) chunk(postings, lists int) *invidx.CodedRun {
	if n := len(wk.chunks); n > 0 {
		c := &wk.chunks[n-1]
		if cap(c.Objs)-len(c.Objs) >= postings && cap(c.Nodes)-len(c.Nodes) >= lists {
			return c
		}
	}
	rows, nodes := max(postings, chunkRows), max(lists, chunkRows/2)
	wk.chunks = append(wk.chunks, invidx.CodedRun{
		Nodes:  make([]uint32, 0, nodes),
		Lens:   make([]uint32, 0, nodes),
		Objs:   make([]uint32, 0, rows),
		Codes:  make([]uint16, 0, rows),
		TCodes: make([]uint16, 0, rows),
	})
	return &wk.chunks[len(wk.chunks)-1]
}

// recordCoded, when set, sees every posting the SEAL build codes — its key,
// object and exact bounds, in list order — from whichever worker codes it. It
// is nil outside tests, which set it to compare the served lists with the
// bounds they stand for.
var recordCoded func(key uint64, obj uint32, rBound, tBound float64)

// newHierarchicalFilter resolves cfg's defaults and wires everything but the
// postings and the locators derived from them.
func newHierarchicalFilter(ds *model.Dataset, cfg *HierarchicalConfig) (*HierarchicalFilter, error) {
	if cfg.MaxLevel <= 0 {
		cfg.MaxLevel = DefaultHierarchicalConfig.MaxLevel
	}
	if cfg.GridBudget <= 0 {
		cfg.GridBudget = DefaultHierarchicalConfig.GridBudget
	}
	tree, err := gridtree.New(ds.Space(), cfg.MaxLevel)
	if err != nil {
		return nil, err
	}
	spec := FilterSpec{Kind: "seal", MaxLevel: cfg.MaxLevel, GridBudget: cfg.GridBudget}
	return &HierarchicalFilter{sigIndex: sigIndex{ds: ds, spec: spec}, tree: tree}, nil
}

// openHierarchicalFilter pairs ds with persisted posting lists, skipping
// both signature generation and the HSS runs — the expensive steps of
// NewHierarchicalFilter. The per-token grid selections are not persisted
// separately: they are read back off src's keys (see deriveLocators).
func openHierarchicalFilter(ds *model.Dataset, spec FilterSpec, src *invidx.Compressed) (Filter, error) {
	cfg := HierarchicalConfig{MaxLevel: spec.MaxLevel, GridBudget: spec.GridBudget}
	f, err := newHierarchicalFilter(ds, &cfg)
	if err != nil {
		return nil, err
	}
	f.idx = src
	f.locs, err = deriveLocators(f.tree, ds.Vocab().Len(), src)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Name implements Filter.
func (f *HierarchicalFilter) Name() string { return "Seal" }

// SizeBytes implements Filter: the posting lists, whose key column the grid
// locators work on and whose list lengths order their projections.
func (f *HierarchicalFilter) SizeBytes() int64 { return f.idx.SizeBytes() }

// Collect implements Filter. For each token in the query's textual prefix,
// the query is projected onto that token's hierarchical grid set, a spatial
// prefix is selected there (the grids are already in the global order), and
// the (token, grid) lists are scanned with both bounds — each reached At the
// position the projection found its key at, never by looking the key up. Grid
// projections and prefix weights live in the caller's scratch; the textual
// prefix comes precompiled on the Query.
//
// A resumed Collect (a top-k descent's next round) projects only the tokens
// new to the textual prefix and scans each list only past its last cutoff.
func (f *HierarchicalFilter) Collect(q *model.Query, cs *CandidateSet, st *FilterStats, stop func() bool, scr *Scratch) {
	cR, cT := Thresholds(q)
	if cR <= 0 || cT <= 0 {
		return
	}
	tsig := q.SigTokens
	pT := invidx.PrefixLen(q.SigWeights, cT)
	slackR, slackT := invidx.Code(invidx.Slack(cR)), invidx.Code(invidx.Slack(cT))
	scr.resume(cs)
	retest := scr.retest(slackT)

	for i, t := range tsig[:pT] {
		if i == len(scr.toks) {
			lo := len(scr.hits)
			if loc, ok := f.locs.of(t); ok {
				scr.hits = loc.project(q.Region, f.idx, scr.hits)
			}
			for _, h := range scr.hits[lo:] {
				scr.gW = append(scr.gW, h.w)
			}
			scr.toks = append(scr.toks, span{lo, len(scr.hits)})
		}
		tok := scr.toks[i]
		hits, cur := scr.hits[tok.lo:tok.hi], scr.cursors(tok.hi)[tok.lo:]
		pR := invidx.PrefixLen(scr.gW[tok.lo:tok.hi], cR)
		for j, h := range hits[:pR] {
			if stop != nil && stop() {
				return
			}
			l := f.idx.At(int(h.list))
			if l.Len() == 0 {
				continue
			}
			cur[j].scanDual(&l, slackR, slackT, retest, cs, st)
		}
	}
}
