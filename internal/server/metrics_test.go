package server

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := newHistogram()
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", q)
	}
	// 100 observations spread evenly through the 1ms–2.5ms bucket.
	for i := 0; i < 100; i++ {
		h.Observe(2 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 <= 0.001 || p50 > 0.0025 {
		t.Fatalf("p50 = %g, want inside the (0.001, 0.0025] bucket", p50)
	}
	// Quantiles are monotone in q.
	if p99 := h.Quantile(0.99); p99 < p50 {
		t.Fatalf("p99 %g < p50 %g", p99, p50)
	}

	// An observation beyond the last bound lands in +Inf and caps the
	// quantile at the last finite bound.
	h2 := newHistogram()
	h2.Observe(time.Minute)
	if q := h2.Quantile(0.5); q != latencyBuckets[len(latencyBuckets)-1] {
		t.Fatalf("overflow quantile = %g, want last bound", q)
	}
}

func TestHistogramExpositionIsCumulative(t *testing.T) {
	h := newHistogram()
	h.Observe(50 * time.Microsecond) // ≤ 0.0001
	h.Observe(2 * time.Millisecond)  // ≤ 0.0025
	h.Observe(time.Minute)           // +Inf

	var sb strings.Builder
	h.writeTo(&sb, "x_seconds", `endpoint="q",`)
	text := sb.String()

	for _, want := range []string{
		`x_seconds_bucket{endpoint="q",le="0.0001"} 1`,
		`x_seconds_bucket{endpoint="q",le="0.0025"} 2`,
		`x_seconds_bucket{endpoint="q",le="10"} 2`,
		`x_seconds_bucket{endpoint="q",le="+Inf"} 3`,
		`x_seconds_count{endpoint="q"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestMetricsRequestAccounting(t *testing.T) {
	m := NewMetrics()
	m.RecordRequest("query", 200, time.Millisecond)
	m.RecordRequest("query", 200, time.Millisecond)
	m.RecordRequest("query", 400, time.Millisecond)
	m.RecordRejected()
	m.IncInFlight()

	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`seal_requests_total{endpoint="query",code="200"} 2`,
		`seal_requests_total{endpoint="query",code="400"} 1`,
		"seal_requests_rejected_total 1",
		"seal_in_flight_requests 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
	m.DecInFlight()
	if m.InFlight() != 0 {
		t.Fatalf("in-flight = %d, want 0", m.InFlight())
	}
}

// TestMetricsExpositionLint holds the daemon's hand-rolled /metrics body,
// after real traffic, to the Prometheus text format: every family has exactly
// one HELP and one TYPE, both before its samples, which are contiguous; metric
// and label names are valid, label values use only the format's three escapes
// and no sample repeats; and every histogram series has buckets of ascending
// le whose cumulative counts never fall, ending at le="+Inf" equal to its
// _count, with a _sum.
func TestMetricsExpositionLint(t *testing.T) {
	srv, ts := bootTestServer(t, DefaultConfig)
	reqs := testQueries(t, srv.Index(), 3)
	for _, req := range reqs {
		postJSON(t, ts.Client(), ts.URL+"/v1/query", wireFrom(req, ""), nil)
	}
	postJSON(t, ts.Client(), ts.URL+"/v1/query/batch", map[string]any{"queries": []any{wireFrom(reqs[0], "")}}, nil)
	postJSON(t, ts.Client(), ts.URL+"/v1/query", map[string]any{"rect": []float64{1}}, nil) // a 400
	srv.metrics.RecordSlowQuery()
	srv.metrics.stages["filter"].Observe(time.Minute) // an overflow observation

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range lintExposition(string(body)) {
		t.Error(problem)
	}

	// The linter itself: each rule, broken once, is reported.
	const good = "# HELP a_total A.\n# TYPE a_total counter\na_total{x=\"1\"} 2\n" +
		"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
		"h_seconds_bucket{le=\"0.1\"} 1\nh_seconds_bucket{le=\"+Inf\"} 2\nh_seconds_sum 0.3\nh_seconds_count 2\n"
	if p := lintExposition(good); len(p) != 0 {
		t.Fatalf("a valid exposition linted as %v", p)
	}
	for name, bad := range map[string]string{
		"two HELP lines":        strings.Replace(good, "# TYPE a_total", "# HELP a_total B.\n# TYPE a_total", 1),
		"TYPE after a sample":   strings.Replace(good, "# TYPE a_total counter\na_total{x=\"1\"} 2\n", "a_total{x=\"1\"} 2\n# TYPE a_total counter\n", 1),
		"a bad label escape":    strings.Replace(good, `x="1"`, `x="\d"`, 1),
		"a bad label name":      strings.Replace(good, `x=`, `1x=`, 1),
		"a bad metric name":     strings.Replace(good, "a_total{", "a-total{", 1),
		"a duplicate sample":    strings.Replace(good, "a_total{x=\"1\"} 2\n", "a_total{x=\"1\"} 2\na_total{x=\"1\"} 3\n", 1),
		"a falling bucket":      strings.Replace(good, `le="0.1"} 1`, `le="0.1"} 3`, 1),
		"+Inf beside the count": strings.Replace(good, "h_seconds_count 2", "h_seconds_count 5", 1),
		"no +Inf bucket":        strings.Replace(good, `le="+Inf"`, `le="1"`, 1),
		"an interleaved family": good + "a_total{x=\"2\"} 1\n",
	} {
		if len(lintExposition(bad)) == 0 {
			t.Errorf("the linter passed %s", name)
		}
	}
}

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// lintExposition returns every way text breaks the rules TestMetricsExpositionLint
// states.
func lintExposition(text string) (problems []string) {
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	type family struct {
		help, typ int
		samples   bool
		done      bool // another family's line came after this one's samples
	}
	families := map[string]*family{}
	familyOf := func(name string) *family {
		if f, ok := families[name]; ok {
			return f
		}
		f := &family{}
		families[name] = f
		return f
	}
	type bucket struct {
		le    float64
		count float64
	}
	buckets := map[string][]bucket{} // histogram series (labels less le) → buckets in order
	counts := map[string]float64{}
	sums := map[string]bool{}
	seen := map[string]bool{}
	current := ""
	for n, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		n++
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || fields[0] != "#" || (fields[1] != "HELP" && fields[1] != "TYPE") {
				fail("line %d: malformed comment %q", n, line)
				continue
			}
			name := fields[2]
			if !metricName.MatchString(name) {
				fail("line %d: invalid metric name %q", n, name)
			}
			if current != name && current != "" {
				familyOf(current).done = true
			}
			current = name
			f := familyOf(name)
			if f.samples {
				fail("line %d: %s %s after its samples", n, fields[1], name)
			}
			if fields[1] == "HELP" {
				f.help++
			} else {
				f.typ++
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					fail("line %d: %s has unknown type %q", n, name, fields[3])
				}
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			fail("line %d: %v", n, err)
			continue
		}
		if seen[name+labels.key("")] {
			fail("line %d: duplicate sample %s", n, line)
		}
		seen[name+labels.key("")] = true
		fam := name
		if _, ok := families[fam]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); base != name && families[base] != nil {
					fam = base
				}
			}
		}
		if fam != current {
			fail("line %d: sample %s outside its family's block (current %q)", n, name, current)
		}
		f := familyOf(fam)
		if f.done {
			fail("line %d: family %s resumes after another family", n, fam)
		}
		f.samples = true
		series := fam + labels.key("le")
		switch {
		case name == fam+"_bucket":
			le, ok := labels["le"]
			v, err := strconv.ParseFloat(le, 64)
			if !ok || err != nil {
				fail("line %d: bucket without a numeric le: %s", n, line)
				continue
			}
			b := buckets[series]
			if len(b) > 0 && (v <= b[len(b)-1].le || value < b[len(b)-1].count) {
				fail("line %d: bucket le=%s count %g after le=%g count %g", n, le, value, b[len(b)-1].le, b[len(b)-1].count)
			}
			buckets[series] = append(b, bucket{v, value})
		case name == fam+"_count":
			counts[series] = value
		case name == fam+"_sum":
			sums[series] = true
		}
	}
	for name, f := range families {
		if f.help != 1 || f.typ != 1 {
			fail("family %s has %d HELP and %d TYPE lines, want one each", name, f.help, f.typ)
		}
		if !f.samples {
			fail("family %s has no samples", name)
		}
	}
	if len(buckets) == 0 {
		fail("no histogram buckets in the exposition")
	}
	for series, b := range buckets {
		last := b[len(b)-1]
		count, ok := counts[series]
		switch {
		case !math.IsInf(last.le, 1):
			fail("histogram %s does not end at le=\"+Inf\"", series)
		case !ok || count != last.count:
			fail("histogram %s: le=\"+Inf\" %g, _count %g", series, last.count, count)
		case !sums[series]:
			fail("histogram %s has no _sum", series)
		}
	}
	return problems
}

// sampleLabels is one sample's label set.
type sampleLabels map[string]string

// key is the label set less one label, in a canonical order.
func (l sampleLabels) key(less string) string {
	names := make([]string, 0, len(l))
	for name := range l {
		if name != less {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "{%s=%q}", name, l[name])
	}
	return sb.String()
}

// parseSample splits one exposition sample line, checking label names and
// the escapes inside label values.
func parseSample(line string) (name string, labels sampleLabels, value float64, err error) {
	labels = sampleLabels{}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("no value in %q", line)
	}
	name, rest := line[:i], line[i:]
	if !metricName.MatchString(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed labels in %q", line)
			}
			label := rest[:eq]
			if !labelName.MatchString(label) {
				return "", nil, 0, fmt.Errorf("invalid label name %q in %q", label, line)
			}
			var v strings.Builder
			i := eq + 2
			for ; i < len(rest) && rest[i] != '"'; i++ {
				if rest[i] == '\\' {
					if i+1 == len(rest) || !strings.ContainsRune(`\"n`, rune(rest[i+1])) {
						return "", nil, 0, fmt.Errorf("invalid escape in label %s of %q", label, line)
					}
					i++
				}
				v.WriteByte(rest[i])
			}
			if i == len(rest) {
				return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
			}
			if _, dup := labels[label]; dup {
				return "", nil, 0, fmt.Errorf("label %s repeated in %q", label, line)
			}
			labels[label] = v.String()
			rest = strings.TrimPrefix(rest[i+1:], ",")
		}
		rest = rest[1:]
	}
	if !strings.HasPrefix(rest, " ") {
		return "", nil, 0, fmt.Errorf("no value in %q", line)
	}
	value, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("value of %q: %v", line, err)
	}
	return name, labels, value, nil
}
