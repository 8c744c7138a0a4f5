package engine

import (
	"cmp"
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/model"
)

// TestMergeRuns: by ID, the k-way merge equals sorting the union and cutting
// it at the limit, for any number of runs (empty ones included) and any
// limit. By score, it equals the heap merge it replaced, with scores tied
// across shards (ties break by ascending ID) and with k below, at and above
// the total.
func TestMergeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		runs := make([][]core.Match, rng.Intn(9))
		var all []core.Match
		for id := 0; id < rng.Intn(200); id++ {
			if len(runs) == 0 {
				break
			}
			m := core.Match{ID: model.ObjectID(id), SimR: rng.Float64()}
			r := rng.Intn(len(runs))
			runs[r] = append(runs[r], m)
			all = append(all, m)
		}
		limit := 0
		if rng.Intn(2) == 0 {
			limit = rng.Intn(len(all) + 3)
		}
		want := all
		if limit > 0 && len(want) > limit {
			want = want[:limit]
		}
		got := mergeRuns(runs, limit, byID, func(m core.Match) core.Match { return m })
		if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("trial %d: %d runs, limit %d: merged %v, want %v", trial, len(runs), limit, got, want)
		}
	}
	for trial := 0; trial < 500; trial++ {
		lists := make([][]core.ScoredMatch, 2+rng.Intn(7))
		total := 0
		for id := 0; id < rng.Intn(200); id++ {
			// Few distinct scores, so equal scores land on several shards.
			m := core.ScoredMatch{ID: model.ObjectID(id), Score: float64(rng.Intn(6)) / 5}
			r := rng.Intn(len(lists))
			lists[r] = append(lists[r], m)
			total++
		}
		for _, l := range lists {
			slices.SortFunc(l, func(a, b core.ScoredMatch) int {
				return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.ID, b.ID))
			})
		}
		k := 1 + rng.Intn(total+5)
		want := referenceMergeTopK(lists, k)
		got := mergeRuns(lists, k, byScore, func(m core.ScoredMatch) core.ScoredMatch { return m })
		if !slices.Equal(got, want) {
			t.Fatalf("ranked trial %d: %d lists, k %d of %d: merged %v, want %v", trial, len(lists), k, total, got, want)
		}
	}
}

// referenceMergeTopK is the container/heap merge the engine used before
// mergeRuns took an order: it pops the globally best entries from the
// per-shard sorted lists until k are taken (or the lists run dry).
func referenceMergeTopK(lists [][]core.ScoredMatch, k int) []core.ScoredMatch {
	if len(lists) == 1 {
		return lists[0] // a lone descent already returns at most k, ranked
	}
	h := make(mergeHeap, 0, len(lists))
	total := 0
	for _, l := range lists {
		total += len(l)
		if len(l) > 0 {
			h = append(h, &cursor{list: l})
		}
	}
	if k > total {
		k = total // bound the allocation by what exists, not the ask
	}
	heap.Init(&h)
	out := make([]core.ScoredMatch, 0, k)
	for len(out) < k && h.Len() > 0 {
		c := h[0]
		out = append(out, c.head())
		c.pos++
		if c.pos == len(c.list) {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return out
}

// cursor walks one shard's result list during the heap merge.
type cursor struct {
	list []core.ScoredMatch
	pos  int
}

func (c *cursor) head() core.ScoredMatch { return c.list[c.pos] }

// mergeHeap orders cursors by their head entry: descending score, ties by
// ascending global object ID — the exact order of the unsharded ranking.
type mergeHeap []*cursor

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	a, b := h[i].head(), h[j].head()
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*cursor)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); c := old[n-1]; *h = old[:n-1]; return c }
