// Package irtree implements the IR-tree baseline of Section 2.3: an R-tree
// whose every node carries the union of its subtree's tokens (the node-level
// view of the per-node inverted files of Cong et al. [7]), extended to
// spatio-textual similarity search. Traversal descends into a node n only if
// both derived bounds hold:
//
//	|q.R ∩ n.R| ≥ cR = τR·|q.R|   and   Σ_{t ∈ q.T ∩ n.T} w(t) ≥ cT = τT·Σ_{t∈q.T} w(t),
//
// and objects reached at the leaves become candidates for exact
// verification. The paper uses this method to show why hierarchical
// containment gives weak pruning for similarity search.
package irtree

import (
	"fmt"
	"math"
	"sort"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/text"
)

type node struct {
	rect     geo.Rect
	tokens   []text.TokenID // sorted union of the subtree's tokens
	children []*node
	objs     []model.ObjectID // leaf payload
}

func (n *node) isLeaf() bool { return n.children == nil }

// Tree is an IR-tree over a dataset. Build one with New.
type Tree struct {
	ds     *model.Dataset
	root   *node
	fanout int
	height int
}

// New bulk-loads an IR-tree over all objects of ds using STR packing, then
// computes token unions bottom-up.
func New(ds *model.Dataset, fanout int) (*Tree, error) {
	if fanout < 4 {
		return nil, fmt.Errorf("irtree: fanout %d must be at least 4", fanout)
	}
	n := ds.Len()
	objs := make([]model.ObjectID, n)
	for i := range objs {
		objs[i] = model.ObjectID(i)
	}
	leaves := packLeaves(ds, objs, fanout)
	height := 1
	level := leaves
	for len(level) > 1 {
		level = packParents(level, fanout)
		height++
	}
	t := &Tree{ds: ds, root: level[0], fanout: fanout, height: height}
	return t, nil
}

func packLeaves(ds *model.Dataset, objs []model.ObjectID, fanout int) []*node {
	n := len(objs)
	leafCount := (n + fanout - 1) / fanout
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	sliceSize := sliceCount * fanout

	sort.Slice(objs, func(i, j int) bool {
		xi, _ := ds.Region(objs[i]).Center()
		xj, _ := ds.Region(objs[j]).Center()
		if xi != xj {
			return xi < xj
		}
		return objs[i] < objs[j]
	})
	var leaves []*node
	for s := 0; s < n; s += sliceSize {
		end := s + sliceSize
		if end > n {
			end = n
		}
		slice := objs[s:end]
		sort.Slice(slice, func(i, j int) bool {
			_, yi := ds.Region(slice[i]).Center()
			_, yj := ds.Region(slice[j]).Center()
			if yi != yj {
				return yi < yj
			}
			return slice[i] < slice[j]
		})
		for l := 0; l < len(slice); l += fanout {
			lend := l + fanout
			if lend > len(slice) {
				lend = len(slice)
			}
			leaf := &node{objs: append([]model.ObjectID(nil), slice[l:lend]...)}
			leaf.rect = ds.Region(leaf.objs[0])
			var union []text.TokenID
			for _, o := range leaf.objs {
				leaf.rect = leaf.rect.Extend(ds.Region(o))
				union = mergeTokens(union, ds.Tokens(o))
			}
			leaf.tokens = union
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func packParents(nodes []*node, fanout int) []*node {
	n := len(nodes)
	parentCount := (n + fanout - 1) / fanout
	sliceCount := int(math.Ceil(math.Sqrt(float64(parentCount))))
	sliceSize := sliceCount * fanout

	sort.Slice(nodes, func(i, j int) bool {
		xi, _ := nodes[i].rect.Center()
		xj, _ := nodes[j].rect.Center()
		return xi < xj
	})
	var parents []*node
	for s := 0; s < n; s += sliceSize {
		end := s + sliceSize
		if end > n {
			end = n
		}
		slice := nodes[s:end]
		sort.Slice(slice, func(i, j int) bool {
			_, yi := slice[i].rect.Center()
			_, yj := slice[j].rect.Center()
			return yi < yj
		})
		for l := 0; l < len(slice); l += fanout {
			lend := l + fanout
			if lend > len(slice) {
				lend = len(slice)
			}
			p := &node{children: append([]*node(nil), slice[l:lend]...)}
			p.rect = p.children[0].rect
			var union []text.TokenID
			for _, c := range p.children {
				p.rect = p.rect.Extend(c.rect)
				union = mergeTokens(union, c.tokens)
			}
			p.tokens = union
			parents = append(parents, p)
		}
	}
	return parents
}

// mergeTokens unions two sorted token sets.
func mergeTokens(a, b []text.TokenID) []text.TokenID {
	out := make([]text.TokenID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Height returns the tree height (1 = a single leaf).
func (t *Tree) Height() int { return t.height }

// Name implements core.Filter.
func (t *Tree) Name() string { return "IR-Tree" }

// SizeBytes implements core.Filter. Every node stores its token union, which
// is exactly the H-fold token replication the paper criticizes (each token
// of every object indexed once per level in the worst case).
func (t *Tree) SizeBytes() int64 {
	var size int64
	var walk func(n *node)
	walk = func(n *node) {
		size += 48 + int64(len(n.tokens))*4
		if n.isLeaf() {
			size += int64(len(n.objs)) * 36
			return
		}
		for _, c := range n.children {
			size += 40
			walk(c)
		}
	}
	walk(t.root)
	return size
}

// Collect implements core.Filter: a bound-driven traversal from the root.
// FilterStats.ListsProbed counts visited nodes and PostingsScanned counts
// leaf objects whose bound checks ran. stop is polled at each node visit,
// cutting the tree walk short.
func (t *Tree) Collect(q *model.Query, cs *core.CandidateSet, st *core.FilterStats, stop func() bool, _ *core.Scratch) {
	cR, cT := core.Thresholds(q)
	if cR <= 0 && cT <= 0 {
		return
	}
	weights := t.ds.Weights()
	slackR := cR - 1e-9*(1+cR)
	slackT := cT - 1e-9*(1+cT)
	var visit func(n *node)
	visit = func(n *node) {
		if stop != nil && stop() {
			return
		}
		st.ListsProbed++
		if q.Region.IntersectionArea(n.rect) < slackR {
			return
		}
		if text.CommonWeight(q.Tokens, n.tokens, weights) < slackT {
			return
		}
		if n.isLeaf() {
			for _, o := range n.objs {
				st.PostingsScanned++
				if q.Region.IntersectionArea(t.ds.Region(o)) < slackR {
					continue
				}
				if text.CommonWeight(q.Tokens, t.ds.Tokens(o), weights) < slackT {
					continue
				}
				cs.Add(uint32(o))
			}
			return
		}
		for _, c := range n.children {
			visit(c)
		}
	}
	visit(t.root)
}
