// Package irtree implements the IR-tree baseline of Section 2.3: an STR
// R-tree, packed level by level with internal/rtree's Pack, whose every node
// carries the union of its subtree's tokens (the node-level view of the
// per-node inverted files of Cong et al. [7]), extended to spatio-textual
// similarity search. Traversal descends into a node n only if
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

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/rtree"
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
	height int
}

// New bulk-loads an IR-tree over all objects of ds with rtree.Pack, the
// R-tree's STR level packer (ties in a center broken by ascending object),
// and gives every node the union of its children's tokens as it packs it.
func New(ds *model.Dataset, fanout int) (*Tree, error) {
	if fanout < 4 {
		return nil, fmt.Errorf("irtree: fanout %d must be at least 4", fanout)
	}
	objs := make([]model.ObjectID, ds.Len())
	for i := range objs {
		objs[i] = model.ObjectID(i)
	}
	var level []*node
	byID := func(a, b model.ObjectID) bool { return a < b }
	for _, tile := range rtree.Pack(objs, fanout, ds.Region, byID) {
		leaf := &node{objs: tile, rect: ds.Region(tile[0])}
		for _, o := range tile {
			leaf.rect = leaf.rect.Extend(ds.Region(o))
			leaf.tokens = mergeTokens(leaf.tokens, ds.Tokens(o))
		}
		level = append(level, leaf)
	}
	height := 1
	for ; len(level) > 1; height++ {
		var parents []*node
		for _, tile := range rtree.Pack(level, fanout, func(n *node) geo.Rect { return n.rect }, nil) {
			p := &node{children: tile, rect: tile[0].rect}
			for _, c := range tile {
				p.rect = p.rect.Extend(c.rect)
				p.tokens = mergeTokens(p.tokens, c.tokens)
			}
			parents = append(parents, p)
		}
		level = parents
	}
	return &Tree{ds: ds, root: level[0], height: height}, nil
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
