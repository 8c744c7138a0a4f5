package seal_test

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/diskidx"
	"github.com/sealdb/seal/internal/engine"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
)

// rowOrderObjects lies on the diagonal with object i's center at 115 − 10i,
// so the Z-order an index cuts its shards from is the reverse of ID order.
// Objects 0 and 9 are twins — same shape, same tokens — at opposite corners,
// and so are the multi-region objects 2 and 7: a query that reaches both
// scores them the same. Every other object has a size and a token of its
// own, and object 11 lacks the token "all".
func rowOrderObjects() []seal.Object {
	const n = 12
	objects := make([]seal.Object, n)
	for i := range objects {
		c := 115 - 10*float64(i)
		h := 1 + 0.25*float64(i)
		objects[i] = seal.Object{
			Region: seal.Rect{MinX: c - h, MinY: c - h, MaxX: c + h, MaxY: c + h},
			Tokens: []string{"all", fmt.Sprintf("t%d", i)},
		}
		switch i {
		case 0, 9:
			objects[i] = seal.Object{
				Region: seal.Rect{MinX: c - 4, MinY: c - 4, MaxX: c + 4, MaxY: c + 4},
				Tokens: []string{"twin", "all"},
			}
		case 2, 7:
			objects[i] = seal.Object{
				Regions: []seal.Rect{
					{MinX: c - 3, MinY: c - 3, MaxX: c - 1, MaxY: c + 3},
					{MinX: c + 1, MinY: c - 3, MaxX: c + 3, MaxY: c + 3},
				},
				Tokens: []string{"duo", "all"},
			}
		case n - 1:
			objects[i].Tokens = objects[i].Tokens[1:]
		}
	}
	return objects
}

// TestRowOrderIsInvisible: an index cuts its shards from the Z-order, here
// the reverse of ID order, and no answer may show it. At every shard count,
// built and reopened, a limited threshold query and a top-1 ranking both
// return the smallest of two tied IDs, every Offset/Limit page is the
// oracle's, Object and Similarity read each object by its ID, and the
// fingerprint is the insertion-ordered dataset's.
func TestRowOrderIsInvisible(t *testing.T) {
	objects := rowOrderObjects()
	orc := newOracle(t, objects)
	space := seal.Rect{MinX: 0, MinY: 0, MaxX: 120, MaxY: 120}
	twins := seal.Request{Region: space, Tokens: []string{"twin"}, TauR: 1e-4, TauT: 0.5}
	top1 := seal.Request{Region: space, Tokens: []string{"twin"}, K: 1, Alpha: 0.5, FloorR: 1e-4, FloorT: 1e-4}
	every := seal.Request{Region: space, Tokens: []string{"all"}, TauR: 1e-4, TauT: 0.01}
	similarities := []seal.Request{
		every,
		{Region: seal.Rect{MinX: 43, MinY: 43, MaxX: 47, MaxY: 47}, Tokens: []string{"duo", "t5"}}, // object 7's gap
		{Region: seal.Rect{MinX: 90, MinY: 90, MaxX: 100, MaxY: 100}, Tokens: []string{"twin", "t1", "zzz"}},
	}
	if want := orc.threshold(t, twins); len(want) != 2 || want[0].ID != 0 || want[1].ID != 9 || want[0].SimR != want[1].SimR || want[0].SimT != want[1].SimT {
		t.Fatalf("the twins do not tie: %+v", want)
	}
	if n := len(orc.threshold(t, every)); n != len(objects)-1 {
		t.Fatalf("every-object query matches %d, want %d", n, len(objects)-1)
	}
	wantPrint := engine.Fingerprint(orc.ds)

	for _, shards := range []int{1, 2, 4} {
		dir := filepath.Join(t.TempDir(), "segs")
		built, err := seal.Build(objects, seal.WithShards(shards), seal.WithSegmentDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		if shards > 1 {
			expectReversedShards(t, dir, len(objects))
		}
		opened, err := seal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range []struct {
			name string
			ix   *seal.Index
		}{{"built", built}, {"opened", opened}} {
			label := fmt.Sprintf("shards=%d %s", shards, ix.name)
			expectAnswer(t, label+" limit 1", ix.ix, twins, []seal.QueryOption{seal.Limit(1)}, orc.threshold(t, twins)[:1])
			expectAnswer(t, label+" top-1", ix.ix, top1, nil, orc.ranked(t, top1))
			full := orc.threshold(t, every)
			expectAnswer(t, label+" unlimited", ix.ix, every, nil, full)
			for off := 0; off < len(full); off += 4 {
				expectAnswer(t, fmt.Sprintf("%s page %d", label, off), ix.ix, every,
					[]seal.QueryOption{seal.Offset(off), seal.Limit(4)}, full[off:min(off+4, len(full))])
			}
			for id, want := range objects {
				got, err := ix.ix.Object(id)
				if err != nil {
					t.Fatal(err)
				}
				slices.Sort(got.Tokens)
				want.Tokens = slices.Sorted(slices.Values(want.Tokens))
				if got.Region != want.Region || !slices.Equal(got.Regions, want.Regions) || !slices.Equal(got.Tokens, want.Tokens) {
					t.Errorf("%s: Object(%d) = %+v, want %+v", label, id, got, want)
				}
				for _, q := range similarities {
					mq, err := orc.ds.NewQuery(geo.Rect(q.Region), q.Tokens, 1, 1)
					if err != nil {
						t.Fatal(err)
					}
					simR, simT, err := ix.ix.Similarity(q, id)
					if err != nil {
						t.Fatal(err)
					}
					if oid := model.ObjectID(id); simR != orc.ds.SimR(mq, oid) || simT != orc.ds.SimT(mq, oid) {
						t.Errorf("%s: Similarity(%v, %d) = %v, %v, want %v, %v", label, q.Tokens, id, simR, simT, orc.ds.SimR(mq, oid), orc.ds.SimT(mq, oid))
					}
				}
			}
			if got := ix.ix.Fingerprint(); got != wantPrint {
				t.Errorf("%s: fingerprint %s, want the insertion-ordered dataset's %s", label, got, wantPrint)
			}
		}
		opened.Close()
		built.Close()
	}
}

// expectReversedShards checks the premise of TestRowOrderIsInvisible at more
// than one shard: the segment directory in dir stores n objects whose shard
// order reverses ID order — each shard's objects all have larger IDs than
// the next shard's — with rows ascending by ID inside each shard, so the
// row→ID column is not the identity.
func expectReversedShards(t *testing.T, dir string, n int) {
	t.Helper()
	seg, err := diskidx.OpenDataset(filepath.Join(dir, "dataset.seg"))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	ds, bounds := seg.Dataset(), seg.Bounds()
	if ds.Len() != n {
		t.Fatalf("the directory stores %d objects, want %d", ds.Len(), n)
	}
	identity := true
	for s := 0; s+1 < len(bounds); s++ {
		for row := bounds[s]; row < bounds[s+1]; row++ {
			id := ds.ID(model.ObjectID(row))
			identity = identity && int(id) == int(row)
			if row > bounds[s] && id <= ds.ID(model.ObjectID(row-1)) {
				t.Fatalf("shard %d: row %d holds object %d after object %d: rows no longer ascend by ID", s, row, id, ds.ID(model.ObjectID(row-1)))
			}
			if s > 0 && id >= ds.ID(model.ObjectID(bounds[s-1])) {
				t.Fatalf("shard %d holds object %d, not below shard %d's objects: shard order no longer reverses ID order", s, id, s-1)
			}
		}
	}
	if identity {
		t.Fatal("the row→ID column is the identity: the premise is gone")
	}
}

// expectAnswer runs req with opts and compares every match, similarities
// and score included, with want.
func expectAnswer(t *testing.T, label string, ix *seal.Index, req seal.Request, opts []seal.QueryOption, want []seal.Match) {
	t.Helper()
	res, err := ix.Query(context.Background(), req, opts...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !slices.Equal(res.Matches, want) {
		t.Errorf("%s: got %+v, want %+v", label, res.Matches, want)
	}
}
