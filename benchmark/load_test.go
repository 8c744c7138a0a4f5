package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-sample p99 = %v, want 7", got)
	}
}

// TestWindowMedian: one disturbed window out of three must not move a figure.
func TestWindowMedian(t *testing.T) {
	window := func(us ...int) loopStats {
		var w loopStats
		for _, u := range us {
			w.add(sample{latency: time.Duration(u) * time.Microsecond, ok: true}, nil)
		}
		return w
	}
	quiet := []int{100, 110, 120, 130, 140, 150, 160, 170, 180, 190}
	noisy := []int{100, 110, 120, 130, 140, 150, 160, 170, 180, 90000}
	windows := []loopStats{window(quiet...), window(noisy...), window(quiet...)}
	if got := windowMedian(windows, latencyPercentile(0.99, nil)); got != 190 {
		t.Errorf("window-median p99 = %v, want 190", got)
	}
	// A failed request has no latency: it must not enter any percentile.
	failed := window(quiet...)
	failed.add(sample{latency: time.Hour, ok: false}, io.ErrUnexpectedEOF)
	if got := latencyPercentile(1, nil)(&failed); got != 190 {
		t.Errorf("max over a window with a failure = %v, want 190", got)
	}
	if failed.okCount() != 10 || len(failed.errs) != 1 {
		t.Errorf("okCount = %d, errs = %d; want 10, 1", failed.okCount(), len(failed.errs))
	}
}

// TestOpenLoopTimesFromDueTime stalls a fake daemon on its first requests and
// checks that the requests which came due during the stall are charged for
// the wait. Timed from the moment they were finally sent, only the stalled
// requests themselves would look slow.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 100 * time.Millisecond
	var seen atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) <= numClients {
			time.Sleep(stall) // every connection is now busy
		}
		io.WriteString(w, "{\"count\":0}\n")
	}))
	defer ts.Close()
	clients := newClients(ts.URL)
	defer closeClients(clients)
	pool := []request{{kind: kindQuery, method: "POST", path: "/v1/query", body: []byte("{}")}}

	const rate, perWindow = 1000, 300
	res := runOpen(clients, pool, &cursor{}, rate, 1, perWindow)
	w := &res.windows[0]
	if len(w.samples) != perWindow || w.okCount() != perWindow {
		t.Fatalf("%d samples, %d ok; want %d of each", len(w.samples), w.okCount(), perWindow)
	}
	slow, slowFromSend := 0, 0
	for _, s := range w.samples {
		if s.latency < s.late {
			t.Fatalf("latency %v shorter than the request's own lateness %v", s.latency, s.late)
		}
		if s.latency > stall/2 {
			slow++
		}
		if s.latency-s.late > stall/2 {
			slowFromSend++
		}
	}
	// About stall/2 × rate = 50 requests came due in the first half of the
	// stall; each waited over stall/2.
	if slow < 30 {
		t.Errorf("%d requests slower than %v from their due time; the stall should have delayed at least 30", slow, stall/2)
	}
	if slowFromSend > numClients {
		t.Errorf("%d requests slow from their send time, want only the %d that were stalled", slowFromSend, numClients)
	}
	if res.backlog[0] < 30 {
		t.Errorf("backlog peaked at %d; about %d requests queued behind the stall", res.backlog[0], int(stall.Seconds()*rate))
	}
}

// TestClosedLoopCounts checks the closed loop's accounting on a fake daemon
// that refuses every third request.
func TestClosedLoopCounts(t *testing.T) {
	var seen atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1)%3 == 0 {
			http.Error(w, "too many in-flight requests", http.StatusTooManyRequests)
			return
		}
		io.WriteString(w, "{\"matches\":[],\"count\":0}\n")
	}))
	defer ts.Close()
	clients := newClients(ts.URL)
	defer closeClients(clients)
	pool := []request{{kind: kindQuery, method: "POST", path: "/v1/query", body: []byte("{}")}}

	w := runClosed(clients, pool, &cursor{}, 50*time.Millisecond)
	n, ok := len(w.samples), w.okCount()
	if n < 6 {
		t.Fatalf("only %d requests completed in 50 ms", n)
	}
	if failed := n - ok; failed < n/3-1 || failed > n/3+1 {
		t.Errorf("%d of %d failed, want a third", failed, n)
	}
	if len(w.errs) == 0 {
		t.Error("no failure was kept for the report")
	}
}
