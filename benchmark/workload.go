package main

// The four workloads and their seeded request streams. Each request is kept
// in both forms the benchmark needs: the pre-encoded HTTP call the daemon
// sees, and the library Requests the oracle and the ladder replay.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	seal "github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/model"
)

type kind int

const (
	kindQuery  kind = iota // threshold request on POST /v1/query
	kindTopK               // ranked request on POST /v1/query
	kindStream             // GET /v1/stream, NDJSON, arrival order
	kindBatch              // POST /v1/query/batch
)

// request is one generated call.
type request struct {
	kind   kind
	method string
	path   string // path and query string
	body   []byte
	reqs   []seal.Request // one, or batchSize for kindBatch
	limit  int            // kindStream only
}

const (
	batchSize   = 16
	streamLimit = 10
	topK        = 10
	topKAlpha   = 0.5
)

// workload is one traffic mix. rate is the open-loop arrival rate: a constant,
// about 40% of the closed-loop capacity measured on the 2-CPU reference box,
// never recomputed at run time so that two commits always meet the same
// offered load. pool is how many distinct requests one run generates; the
// closed and open loops walk it in order and wrap.
type workload struct {
	name   string
	rate   float64
	pool   int
	ladder int // requests replayed down the ladder in a traced run
	gen    func(ds *model.Dataset, n int, seed int64) ([]request, error)
}

var workloads = []workload{
	{name: "thin_selective", rate: 2400, pool: 24000, ladder: 2000, gen: thresholdGen(gen.LargeRegionConfig, 0.4)},
	{name: "scan_heavy", rate: 1100, pool: 16000, ladder: 2000, gen: thresholdGen(gen.SmallRegionConfig, 0.02)},
	{name: "fat_results", rate: 350, pool: 6000, ladder: 500, gen: thresholdGen(fatRegionConfig, fatTau)},
	{name: "mixed_shapes", rate: 900, pool: 8000, ladder: 1000, gen: mixedGen},
}

// fat_results is sized so that the answer, not the search, is the work: the
// paper's large-region queries widened (mean 1500 km² instead of 554) and
// thresholds low enough that most candidates are matches.
const fatTau = 0.005

func fatRegionConfig(n int, seed int64) gen.QueryConfig {
	cfg := gen.LargeRegionConfig(n, seed)
	cfg.MeanArea = 1500
	return cfg
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// wireQuery mirrors the daemon's JSON request schema.
type wireQuery struct {
	Rect   [4]float64 `json:"rect"`
	Tokens []string   `json:"tokens"`
	TauR   float64    `json:"tau_r,omitempty"`
	TauT   float64    `json:"tau_t,omitempty"`
	K      int        `json:"k,omitempty"`
	Alpha  float64    `json:"alpha,omitempty"`
}

func wireOf(r seal.Request) wireQuery {
	return wireQuery{
		Rect:   [4]float64{r.Region.MinX, r.Region.MinY, r.Region.MaxX, r.Region.MaxY},
		Tokens: r.Tokens,
		TauR:   r.TauR, TauT: r.TauT,
		K: r.K, Alpha: r.Alpha,
	}
}

func thresholdRequest(s gen.QuerySpec, tau float64) seal.Request {
	return seal.Request{
		Region: seal.Rect{MinX: s.Region.MinX, MinY: s.Region.MinY, MaxX: s.Region.MaxX, MaxY: s.Region.MaxY},
		Tokens: s.Terms,
		TauR:   tau, TauT: tau,
	}
}

func postQuery(k kind, r seal.Request) (request, error) {
	body, err := json.Marshal(wireOf(r))
	if err != nil {
		return request{}, err
	}
	return request{kind: k, method: "POST", path: "/v1/query", body: body, reqs: []seal.Request{r}}, nil
}

func thresholdGen(cfg func(n int, seed int64) gen.QueryConfig, tau float64) func(*model.Dataset, int, int64) ([]request, error) {
	return func(ds *model.Dataset, n int, seed int64) ([]request, error) {
		specs, err := gen.Queries(ds, cfg(n, seed))
		if err != nil {
			return nil, err
		}
		out := make([]request, n)
		for i, s := range specs {
			if out[i], err = postQuery(kindQuery, thresholdRequest(s, tau)); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// mixedGen interleaves the engine's other shapes in a fixed seeded order:
// 40% ranked top-k, 30% limited NDJSON streams, 30% batches of thin queries.
func mixedGen(ds *model.Dataset, n int, seed int64) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	kinds := make([]kind, n)
	need := 0
	for i := range kinds {
		switch u := rng.Float64(); {
		case u < 0.4:
			kinds[i], need = kindTopK, need+1
		case u < 0.7:
			kinds[i], need = kindStream, need+1
		default:
			kinds[i], need = kindBatch, need+batchSize
		}
	}
	specs, err := gen.Queries(ds, gen.LargeRegionConfig(need, seed))
	if err != nil {
		return nil, err
	}
	out := make([]request, n)
	for i, k := range kinds {
		switch k {
		case kindTopK:
			r := thresholdRequest(specs[0], 0)
			r.K, r.Alpha = topK, topKAlpha
			specs = specs[1:]
			if out[i], err = postQuery(kindTopK, r); err != nil {
				return nil, err
			}
		case kindStream:
			r := thresholdRequest(specs[0], fatTau)
			specs = specs[1:]
			out[i] = streamRequest(r)
		default:
			batch := make([]seal.Request, batchSize)
			wire := make([]wireQuery, batchSize)
			for j := range batch {
				batch[j] = thresholdRequest(specs[j], 0.4)
				wire[j] = wireOf(batch[j])
			}
			specs = specs[batchSize:]
			body, err := json.Marshal(map[string]any{"queries": wire})
			if err != nil {
				return nil, err
			}
			out[i] = request{kind: kindBatch, method: "POST", path: "/v1/query/batch", body: body, reqs: batch}
		}
	}
	return out, nil
}

func streamRequest(r seal.Request) request {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	q := url.Values{}
	q.Set("rect", strings.Join([]string{f(r.Region.MinX), f(r.Region.MinY), f(r.Region.MaxX), f(r.Region.MaxY)}, ","))
	q.Set("tokens", strings.Join(r.Tokens, ","))
	q.Set("tau_r", f(r.TauR))
	q.Set("tau_t", f(r.TauT))
	q.Set("limit", strconv.Itoa(streamLimit))
	return request{
		kind: kindStream, method: "GET", path: "/v1/stream?" + q.Encode(),
		reqs: []seal.Request{r}, limit: streamLimit,
	}
}

func (k kind) String() string {
	switch k {
	case kindQuery:
		return "query"
	case kindTopK:
		return "topk"
	case kindStream:
		return "stream"
	case kindBatch:
		return "batch"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}
