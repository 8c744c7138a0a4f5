// Package server is the HTTP serving layer over the seal library's Request
// API: the handler→engine seam of cmd/sealserver. It owns endpoint routing,
// per-request timeouts, a max-concurrency limiter, Prometheus-format
// metrics, structured JSON query logging, readiness gating, and the
// segment-boot + warmup path. The package exposes plain http.Handlers so a
// later gRPC or continuous-query front end can sit beside the HTTP one and
// reuse everything below the routing line.
//
// Every query the daemon serves — /v1/query, /v1/explain and each
// /v1/query/batch entry — is answered by one function, Server.answer, and
// /v1/stream builds its options with the same helper. The response path has
// one encoder (wire.go): the query endpoints append each seal.Match with
// strconv into one pooled chunk, written to the ResponseWriter whenever it
// passes 32 KiB (and per line on the NDJSON stream), so no buffer grows with
// the answer. The bodies are byte-identical to what encoding/json writes for
// the same values. Error bodies, /v1/status and the trace object go through
// encoding/json. Request bodies are capped at 8 MiB; a larger one is a 413.
package server

import (
	"context"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	seal "github.com/sealdb/seal"
)

// Server serves queries over one immutable seal.Index.
type Server struct {
	ix      *seal.Index
	cfg     Config
	metrics *Metrics
	qlog    *QueryLog

	ready atomic.Bool
	sem   chan struct{} // nil when MaxInFlight == 0 (unlimited)

	boot BootInfo
}

// New wires a server around an already-booted index. logw receives one JSON
// line per request (nil disables query logging). The server starts not
// ready; call SetReady(true) once warmup is done (Boot does this for you via
// cmd/sealserver).
func New(ix *seal.Index, cfg Config, qlog *QueryLog) *Server {
	s := &Server{
		ix:      ix,
		cfg:     cfg,
		metrics: NewMetrics(),
		qlog:    qlog,
	}
	s.metrics.SetIndexStats(ix.Stats())
	s.metrics.SetQuarantined(ix.Quarantined())
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	return s
}

// Index returns the served index (the differential test queries it
// in-process).
func (s *Server) Index() *seal.Index { return s.ix }

// Metrics returns the server's metric registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// SetBootInfo records how the index came up, for /v1/status.
func (s *Server) SetBootInfo(b BootInfo) { s.boot = b }

// SetReady flips /readyz. Flip to false first thing during shutdown so load
// balancers stop routing before the listener drains.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Handler returns the daemon's full route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /varz", s.handleMetrics)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.Handle("POST /v1/query", s.serving("query", s.handleQuery))
	mux.Handle("POST /v1/query/batch", s.serving("batch", s.handleBatch))
	mux.Handle("GET /v1/stream", s.serving("stream", s.handleStream))
	mux.Handle("POST /v1/explain", s.serving("explain", s.handleQuery))
	if s.cfg.Pprof {
		// Opt-in: the profiling endpoints expose internals and cost CPU when
		// sampled, so they never mount on a default configuration. Explicit
		// registrations rather than the net/http/pprof DefaultServeMux import
		// side effect, which this mux would ignore anyway.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// noteSlow reports whether one finished request is at or over the slow-query
// threshold (a disabled threshold never flags) and counts it if so.
func (s *Server) noteSlow(elapsed time.Duration) bool {
	if s.cfg.SlowQuery <= 0 || elapsed < s.cfg.SlowQuery {
		return false
	}
	s.metrics.RecordSlowQuery()
	return true
}

// serving wraps a query-path handler with the shared runtime behavior:
// readiness gate, concurrency limiter, in-flight accounting, per-request
// timeout, and request metrics. Endpoint handlers receive a statusRecorder
// so the wrapper can attribute the final code.
func (s *Server) serving(endpoint string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if !s.ready.Load() {
			http.Error(w, "index not ready", http.StatusServiceUnavailable)
			s.metrics.RecordRequest(endpoint, http.StatusServiceUnavailable, time.Since(start))
			return
		}
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.metrics.RecordRejected()
				http.Error(w, "too many in-flight requests", http.StatusTooManyRequests)
				s.metrics.RecordRequest(endpoint, http.StatusTooManyRequests, time.Since(start))
				return
			}
		}
		s.metrics.IncInFlight()
		defer s.metrics.DecInFlight()

		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.metrics.RecordRequest(endpoint, rec.code, time.Since(start))
	})
}

// statusRecorder captures the response code for metrics and logging, and
// forwards Flush so the stream endpoint can push NDJSON lines promptly.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// statusCode extracts the recorded code (200 when the handler never set one).
func statusCode(w http.ResponseWriter) int {
	if rec, ok := w.(*statusRecorder); ok {
		return rec.code
	}
	return http.StatusOK
}
