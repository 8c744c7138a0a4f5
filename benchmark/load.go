package main

// The load generator: a closed loop (each client sends its next request when
// the previous one completes) and an open loop (requests are due on a fixed
// schedule whether or not the daemon keeps up), both over the same two
// keep-alive connections, plus the window-median percentile arithmetic.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// numClients is the connection count: the reference box has 2 CPUs.
const numClients = 2

// client owns one keep-alive connection to the daemon.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClients(base string) []*client {
	cs := make([]*client, numClients)
	for i := range cs {
		cs[i] = &client{base: base, hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// reply is what one call observed. body aliases the client's buffer and is
// only valid until its next call.
type reply struct {
	status    int
	body      []byte
	firstLine time.Duration // stream only: send → first NDJSON line
	err       error
}

func (c *client) do(r *request) reply { return c.doTagged(r, "") }

// doTagged is do with the ladder's request id attached for its middleware.
func (c *client) doTagged(r *request, id string) reply {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, c.base+r.path, body)
	if err != nil {
		return reply{err: err}
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	out := reply{status: resp.StatusCode}
	c.buf.Reset()
	if r.kind == kindStream {
		br := bufio.NewReader(resp.Body)
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			out.firstLine = time.Since(start)
			c.buf.Write(line)
		}
		if err == nil {
			_, err = c.buf.ReadFrom(br)
		} else if err == io.EOF {
			err = nil
		}
		out.err = err
	} else {
		_, out.err = c.buf.ReadFrom(resp.Body)
	}
	out.body = c.buf.Bytes()
	return out
}

// validate is the per-response check of the timed phases: cheap enough not to
// steal the daemon's CPU, strict enough that a refused, failed, truncated or
// malformed answer counts as a failure. Exactness is the oracle gate's job.
func (r *request) validate(rep reply) error {
	if rep.err != nil {
		return rep.err
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("HTTP %d", rep.status)
	}
	body := rep.body
	switch r.kind {
	case kindStream:
		lines := bytes.Count(body, []byte{'\n'})
		if lines > r.limit {
			return fmt.Errorf("stream sent %d lines over limit %d", lines, r.limit)
		}
		if lines != bytes.Count(body, []byte(`{"id":`)) {
			return fmt.Errorf("stream carried a non-match record: %.80s", body)
		}
	case kindBatch:
		if n := bytes.Count(body, []byte(`"matches":`)); n != len(r.reqs) {
			return fmt.Errorf("batch answered %d of %d queries", n, len(r.reqs))
		}
	default:
		if !bytes.Contains(body, []byte(`"count":`)) || !bytes.HasSuffix(body, []byte("}\n")) {
			return fmt.Errorf("malformed query response: %.80s", body)
		}
	}
	return nil
}

// sample is one timed request.
type sample struct {
	latency   time.Duration
	firstLine time.Duration
	late      time.Duration // open loop: send − due
	kind      kind
	ok        bool
}

// loopStats is one phase window.
type loopStats struct {
	samples []sample
	elapsed time.Duration
	errs    []error // first few failures, for the report
}

func (s *loopStats) add(smp sample, err error) {
	s.samples = append(s.samples, smp)
	if err != nil && len(s.errs) < 3 {
		s.errs = append(s.errs, err)
	}
}

func (s *loopStats) merge(o *loopStats) {
	s.samples = append(s.samples, o.samples...)
	for _, e := range o.errs {
		if len(s.errs) < 3 {
			s.errs = append(s.errs, e)
		}
	}
}

func (s *loopStats) okCount() int {
	n := 0
	for _, smp := range s.samples {
		if smp.ok {
			n++
		}
	}
	return n
}

// cursor hands out pool positions across phases so that successive windows
// see fresh requests rather than the same prefix.
type cursor struct{ next atomic.Int64 }

func (c *cursor) take(pool []request) *request {
	return &pool[int((c.next.Add(1)-1)%int64(len(pool)))]
}

// runClosed drives every client back-to-back for d. A request in flight at
// the deadline completes and counts; elapsed covers it.
func runClosed(clients []*client, pool []request, cur *cursor, d time.Duration) *loopStats {
	parts := make([]loopStats, len(clients))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, part *loopStats) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := cur.take(pool)
				t0 := time.Now()
				rep := c.do(r)
				lat := time.Since(t0)
				err := r.validate(rep)
				part.add(sample{latency: lat, firstLine: rep.firstLine, kind: r.kind, ok: err == nil}, err)
			}
		}(c, &parts[i])
	}
	wg.Wait()
	out := &loopStats{elapsed: time.Since(start)}
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// openResult is one open-loop phase: samples bucketed into windows by due
// time, and the deepest backlog (requests due but not yet sent) seen in each.
type openResult struct {
	windows []loopStats
	backlog []int64
}

// runOpen issues windows×perWindow requests, request i due at start + i/rate.
// A dispatcher releases each request at its due time and the clients take them
// in order; when both connections are busy the released requests queue, and
// latency runs from the due time, so a stall is charged to every request it
// delayed, not just the one it hit.
//
// The dispatcher waits by yielding, not sleeping: timers on the reference VM
// tick at about 1.1 ms, several arrival intervals, so a sleeping generator
// would send in bursts and report its own lateness as latency. The cost is
// one busy CPU on the generator's side for the length of the phase, the same
// on every commit.
func runOpen(clients []*client, pool []request, cur *cursor, rate float64, windows, perWindow int) *openResult {
	total := windows * perWindow
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	dueAt := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }

	// Sized to the number of sends, so the dispatcher never blocks on a slow
	// daemon: that is what makes the loop open.
	released := make(chan int, total)
	out := &openResult{windows: make([]loopStats, windows), backlog: make([]int64, windows)}
	parts := make([][]loopStats, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		parts[ci] = make([]loopStats, windows)
		wg.Add(1)
		go func(c *client, part []loopStats) {
			defer wg.Done()
			for i := range released {
				due := dueAt(i)
				r := cur.take(pool)
				send := time.Now()
				rep := c.do(r)
				done := time.Now()
				err := r.validate(rep)
				smp := sample{latency: done.Sub(due), late: send.Sub(due), kind: r.kind, ok: err == nil}
				if rep.firstLine > 0 {
					smp.firstLine = rep.firstLine + smp.late
				}
				part[i/perWindow].add(smp, err)
			}
		}(c, parts[ci])
	}
	for i := 0; i < total; i++ {
		for due := dueAt(i); time.Now().Before(due); {
			yield()
		}
		released <- i
		if waiting := int64(len(released)); waiting > out.backlog[i/perWindow] {
			out.backlog[i/perWindow] = waiting
		}
	}
	close(released)
	wg.Wait()
	for _, part := range parts {
		for w := range out.windows {
			out.windows[w].merge(&part[w])
		}
	}
	return out
}

// yield gives the CPU to whatever else can run — another goroutine, or,
// through sched_yield, another thread such as the daemon's — and returns at
// once when nothing can. A waiter built on it holds a CPU only while that CPU
// would otherwise idle.
func yield() {
	runtime.Gosched()
	syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of xs, which it
// sorts; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// pick extracts one duration field, in µs, from the successful samples that
// pass keep. Failed requests carry no latency: they miss every figure.
func pick(samples []sample, field func(sample) time.Duration, keep func(sample) bool) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.ok && (keep == nil || keep(s)) {
			out = append(out, float64(field(s).Nanoseconds())/1e3)
		}
	}
	return out
}

func latencyOf(s sample) time.Duration { return s.latency }

// windowMedian computes a statistic per window and returns the median across
// windows: one disturbed window cannot move the figure, which is what lets a
// p99 repeat from run to run.
func windowMedian(windows []loopStats, stat func(*loopStats) float64) float64 {
	vals := make([]float64, len(windows))
	for i := range windows {
		vals[i] = stat(&windows[i])
	}
	return median(vals)
}

func latencyPercentile(p float64, keep func(sample) bool) func(*loopStats) float64 {
	return func(w *loopStats) float64 { return percentile(pick(w.samples, latencyOf, keep), p) }
}

func ofKind(k kind) func(sample) bool { return func(s sample) bool { return s.kind == k } }
