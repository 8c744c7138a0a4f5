package core

import (
	"sync"

	"github.com/sealdb/seal/internal/model"
)

// SearcherPool hands out Searchers over one dataset/filter pair. Searchers
// reuse internal buffers and are not safe for concurrent use, so concurrent
// callers each Get one, search, and Put it back. The zero value is unusable;
// create pools with NewSearcherPool.
type SearcherPool struct {
	pool sync.Pool
}

// NewSearcherPool creates a pool whose searchers run f over ds.
func NewSearcherPool(ds *model.Dataset, f Filter) *SearcherPool {
	p := &SearcherPool{}
	p.pool.New = func() any { return NewSearcher(ds, f) }
	return p
}

// Get returns a ready searcher, creating one if the pool is empty.
func (p *SearcherPool) Get() *Searcher { return p.pool.Get().(*Searcher) }

// Put returns a searcher obtained from Get for reuse. The tracer is cleared
// unconditionally: a recorder attached for one traced query must never
// receive spans from the searcher's next borrower.
func (p *SearcherPool) Put(s *Searcher) {
	s.SetTrace(nil, 0)
	p.pool.Put(s)
}
