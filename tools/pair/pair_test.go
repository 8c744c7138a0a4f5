package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	// The parent's thin_selective rss_mb readings of six runs.
	q1, med, q3 := quartiles([]float64{39.30, 38.51, 39.02, 38.80, 38.82, 38.88})
	for _, c := range []struct{ got, want float64 }{{q1, 38.805}, {med, 38.85}, {q3, 38.985}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Fatalf("quartiles = %v / %v / %v, want 38.805 / 38.85 / 38.985", q1, med, q3)
		}
	}
	if _, med, _ := quartiles([]float64{7}); med != 7 {
		t.Fatalf("median of one reading = %v", med)
	}
}

func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		lower, higher int
		want          float64
	}{
		{0, 0, 1},
		{5, 5, 1},
		{3, 7, 0.34375},
		{7, 3, 0.34375},
		{1, 9, 0.021484375},
		{0, 10, 0.001953125},
		{9, 0, 0.00390625},
		{0, 1, 1},
	} {
		if got := signTest(c.lower, c.higher); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.lower, c.higher, got, c.want)
		}
	}
	if p := signTest(0, 400); p <= 0 || p > 1e-100 {
		t.Errorf("signTest(0, 400) = %v, want a tiny positive p", p)
	}
}

func TestParseHarness(t *testing.T) {
	out := []byte("# commit=abc go=go1.24.0\n" +
		`{"correct":true,"attempted":120,"failed":2,"metrics":{"setup_s":{"value":1.5,"unit":"s"},"rss_mb":{"value":35.25,"unit":"MiB"},"index_mb":{"value":19.626483917236328,"unit":"MiB"}}}` + "\n")
	m, err := parseHarness(out)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"correct", "attempted", "failed", "index_mb", "rss_mb", "setup_s"}
	if !slices.Equal(m.names, want) {
		t.Fatalf("names %v, want %v", m.names, want)
	}
	if m.values["correct"] != 1 || m.values["attempted"] != 120 || m.values["failed"] != 2 ||
		m.values["rss_mb"] != 35.25 || m.values["index_mb"] != 19.626483917236328 {
		t.Fatalf("values %v", m.values)
	}
	if _, err := parseHarness([]byte("benchmark: workload failed\n")); err == nil {
		t.Fatal("output without a result line parsed")
	}
	if _, err := parseHarness(nil); err == nil {
		t.Fatal("empty output parsed")
	}
}

func TestParseBench(t *testing.T) {
	out := []byte(`goos: linux
BenchmarkOpenSegments 	       5	  86434258 ns/op	   3572478 retained-B/op	 4188875 B/op	     497 allocs/op
BenchmarkVocabLookup/present-2         	 2000000	        52.20 ns/op
BenchmarkVocabLookup/present-2         	 2000000	        48.20 ns/op
BenchmarkShardSearch/token-x-4	4000	10 filter-ns/op
--- BENCH: BenchmarkVocabLookup
PASS
`)
	m, err := parseBench(out)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"OpenSegments ns/op", "OpenSegments retained-B/op", "OpenSegments B/op", "OpenSegments allocs/op",
		"VocabLookup/present ns/op", "ShardSearch/token-x filter-ns/op",
	}
	if !slices.Equal(m.names, want) {
		t.Fatalf("names %q, want %q", m.names, want)
	}
	if m.values["OpenSegments retained-B/op"] != 3572478 || m.values["VocabLookup/present ns/op"] != 50.2 {
		t.Fatalf("values %v", m.values)
	}
	if _, err := parseBench([]byte("PASS\n")); err == nil {
		t.Fatal("output without Benchmark lines parsed")
	}
}

func TestTableRender(t *testing.T) {
	tb := newTable("metric", "value", "note")
	tb.Append("rss_mb", "35.25", "fell")
	tb.Append("setup_s", "-1.5 %", "")
	tb.Append("failed", "1e+05")
	var b bytes.Buffer
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"| metric  |  value | note |\n" +
		"| ------- | -----: | ---- |\n" +
		"| rss_mb  |  35.25 | fell |\n" +
		"| setup_s | -1.5 % |      |\n" +
		"| failed  |  1e+05 |      |\n"
	if b.String() != want {
		t.Fatalf("rendered\n%s\nwant\n%s", b.String(), want)
	}
	for _, s := range []string{"1", "-2.5", "+3.0 %", "4.1e-07", "1e+05"} {
		if !numeric(s) {
			t.Errorf("numeric(%q) = false", s)
		}
	}
	for _, s := range []string{"", "-", "1.2.3", "e5", "1e", "3 lower, 7 higher", "n/a"} {
		if numeric(s) {
			t.Errorf("numeric(%q) = true", s)
		}
	}
}

// TestRunAlternatesSides drives both kinds of pair with stand-in programs:
// two checkouts whose benchmark/run.sh prints a result line, and two
// "test binaries" that print Benchmark lines. Each side logs every call to a
// shared file, so the order of the runs is checked too.
func TestRunAlternatesSides(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "log")
	script := func(path, side, body string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		sh := "#!/bin/sh\necho " + side + " >> " + log + "\n" + body
		if err := os.WriteFile(path, []byte(sh), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	harness := func(side, rss string) string {
		root := filepath.Join(dir, side)
		script(filepath.Join(root, "benchmark", "run.sh"), side,
			`echo '# header'`+"\n"+`echo '{"correct":true,"attempted":10,"failed":0,"metrics":{"rss_mb":{"value":`+rss+`,"unit":"MiB"},"index_mb":{"value":19.5,"unit":"MiB"}}}'`+"\n")
		return root
	}
	cfg := config{paths: []string{harness("parent", "38.75"), harness("change", "35.25")}, pairs: 4, stderr: &bytes.Buffer{}}
	runs, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	order, _ := os.ReadFile(log)
	if got := strings.Fields(string(order)); !slices.Equal(got, []string{"parent", "change", "change", "parent", "parent", "change", "change", "parent"}) {
		t.Fatalf("run order %v", got)
	}
	cfg.filter = regexp.MustCompile(`^(rss_mb|index_mb)$`)
	var doc bytes.Buffer
	if err := cfg.report(&doc, runs); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## bash benchmark/run.sh\n",
		"| index_mb |     4 | 19.5 / 19.5 / 19.5      | 19.5 / 19.5 / 19.5      |        +0.0 % | 0 lower, 0 higher |           1 |          0 | no         |",
		"| rss_mb   |     4 | 38.75 / 38.75 / 38.75   | 35.25 / 35.25 / 35.25   |        -9.0 % | 4 lower, 0 higher |       0.125 |          0 | yes        |",
		"| rss_mb   |    2 | change |  38.75 |  35.25 |",
	} {
		if !strings.Contains(doc.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, doc.String())
		}
	}
	if strings.Contains(doc.String(), "attempted") {
		t.Fatalf("report tabulates a metric -metrics excludes:\n%s", doc.String())
	}

	os.Remove(log)
	bin := func(side, ns string) string {
		path := filepath.Join(dir, side+".test")
		script(path, side, "echo 'BenchmarkLookup/present-2 \t 100 \t "+ns+" ns/op'\necho PASS\n")
		return path
	}
	cfg = config{bench: true, paths: []string{bin("parent", "30"), bin("change", "20")}, dir: dir, pairs: 2,
		args: []string{"-test.run", "^$", "-test.bench", "Lookup"}, stderr: &bytes.Buffer{}}
	runs, err = cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	if got := runs[1][1].values["Lookup/present ns/op"]; got != 20 {
		t.Fatalf("change reading %v, want 20", got)
	}
	if got := cfg.command(); got != "parent.test -test.run '^$' -test.bench Lookup" {
		t.Fatalf("command %q", got)
	}

	cfg.paths[1] = filepath.Join(dir, "missing.test")
	if _, err := cfg.run(); err == nil {
		t.Fatal("a side that cannot run did not fail the pairs")
	}
}

// summaryCells returns the trimmed cells of the summary row of metric.
func summaryCells(t *testing.T, doc, metric string) []string {
	t.Helper()
	for _, line := range strings.Split(doc, "\n") {
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if len(cells) > 9 && cells[0] == metric {
			return cells
		}
	}
	t.Fatalf("no summary row for %q:\n%s", metric, doc)
	return nil
}

// TestControlColumn: with -control, every other row is judged against the
// control rows of its unit that moved its way. seal falls 30 % against a
// control that fell 5 % (and one of B/op that fell 50 %): claimed. slow rises 5 % where a control rose 8 %:
// reported. The flat allocs row clears nothing. The same batch cut to nine
// pairs fails the sign test's pair minimum.
func TestControlColumn(t *testing.T) {
	runs := make([]pairRun, 10)
	for p := range runs {
		j := float64(p%3 - 1)
		a, b := newMetrics(), newMetrics()
		for _, m := range []struct {
			name         string
			parent, diff float64
		}{
			{"ShardBuild/seal ns/op", 1000, -300},
			{"ShardBuild/seal allocs/op", 410, 0},
			{"ShardBuild/slow ns/op", 1000, 50},
			{"ShardBuild/token ns/op", 100, -5},
			{"ShardBuild/grid ns/op", 100, 8},
			{"ShardBuild/grid allocs/op", 50, 0},
			{"ShardBuild/grid B/op", 1000, -500}, // another unit: no control of ns/op
		} {
			a.add(m.name, m.parent+j)
			b.add(m.name, m.parent+m.diff+j)
		}
		runs[p] = pairRun{a, b}
	}
	cfg := config{bench: true, paths: []string{"parent.test", "change.test"},
		control: regexp.MustCompile(`^ShardBuild/(token|grid) `)}
	var doc bytes.Buffer
	if err := cfg.report(&doc, runs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc.String(), "| clears IQR | control change ") {
		t.Fatalf("no control column:\n%s", doc.String())
	}
	for _, want := range []struct{ metric, control, verdict string }{
		{"ShardBuild/seal ns/op", "-5.0 % (ShardBuild/token ns/op)", "claimed"},
		{"ShardBuild/slow ns/op", "+8.0 % (ShardBuild/grid ns/op)", "reported (control)"},
		{"ShardBuild/seal allocs/op", "none", "reported (IQR, sign test, control)"},
		{"ShardBuild/token ns/op", "", "control"},
		{"ShardBuild/grid allocs/op", "", "control"},
	} {
		cells := summaryCells(t, doc.String(), want.metric)
		if got := cells[len(cells)-2:]; got[0] != want.control || got[1] != want.verdict {
			t.Errorf("%s: control %q, verdict %q; want %q, %q", want.metric, got[0], got[1], want.control, want.verdict)
		}
	}

	doc.Reset()
	if err := cfg.report(&doc, runs[:9]); err != nil {
		t.Fatal(err)
	}
	if cells := summaryCells(t, doc.String(), "ShardBuild/seal ns/op"); cells[len(cells)-1] != "reported (sign test)" {
		t.Errorf("nine pairs: verdict %q, want %q", cells[len(cells)-1], "reported (sign test)")
	}
}

// TestPlaceboControl: with -placebo each pair runs three sides, rotating
// which goes first, and every row's control change is the placebo's change
// of the same metric when it moved the row's way. fast falls 30 % where the
// placebo fell 5 %: claimed. slow rises 5 % where the placebo rose 8 %:
// reported. flat falls 20 % where the placebo rose: no control change, and
// claimed.
func TestPlaceboControl(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "log")
	var paths []string
	for _, side := range sides {
		path := filepath.Join(dir, side+".test")
		sh := "#!/bin/sh\necho " + side + " >> " + log + "\necho 'BenchmarkLookup/present-2 \t 100 \t 30 ns/op'\necho PASS\n"
		if err := os.WriteFile(path, []byte(sh), 0o755); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	cfg := config{bench: true, paths: paths, dir: dir, pairs: 3, stderr: &bytes.Buffer{}}
	runs, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	order, _ := os.ReadFile(log)
	want := []string{"parent", "change", "placebo", "change", "placebo", "parent", "placebo", "parent", "change"}
	if got := strings.Fields(string(order)); !slices.Equal(got, want) {
		t.Fatalf("run order %v, want %v", got, want)
	}
	if got := runs[2][2].values["Lookup/present ns/op"]; got != 30 {
		t.Fatalf("placebo reading %v, want 30", got)
	}

	runs = make([]pairRun, 10)
	for p := range runs {
		j := float64(p%3 - 1)
		r := pairRun{newMetrics(), newMetrics(), newMetrics()}
		for _, m := range []struct {
			name                  string
			parent, diff, placebo float64
		}{
			{"ShardSearch/fast ns/op", 1000, -300, -50},
			{"ShardSearch/slow ns/op", 1000, 50, 80},
			{"ShardSearch/flat ns/op", 1000, -200, 30},
		} {
			r[0].add(m.name, m.parent+j)
			r[1].add(m.name, m.parent+m.diff+j)
			r[2].add(m.name, m.parent+m.placebo+j)
		}
		runs[p] = r
	}
	var doc bytes.Buffer
	if err := cfg.report(&doc, runs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc.String(), "| metric                 | pair | first   | parent | change | placebo |") {
		t.Fatalf("no placebo column among the raw readings:\n%s", doc.String())
	}
	for _, want := range []struct{ metric, control, verdict string }{
		{"ShardSearch/fast ns/op", "-5.0 % (placebo)", "claimed"},
		{"ShardSearch/slow ns/op", "+8.0 % (placebo)", "reported (control)"},
		{"ShardSearch/flat ns/op", "none", "claimed"},
	} {
		cells := summaryCells(t, doc.String(), want.metric)
		if got := cells[len(cells)-2:]; got[0] != want.control || got[1] != want.verdict {
			t.Errorf("%s: control %q, verdict %q; want %q, %q", want.metric, got[0], got[1], want.control, want.verdict)
		}
	}
}
