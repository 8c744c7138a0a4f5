// Command pair runs two builds of this repository alternately and tabulates
// the pairs: each side's quartiles and median of every metric, the median
// change, how many pairs the change read lower and higher, the two-sided
// sign-test p, and whether the medians differ by more than the parent's own
// interquartile range. It is its own module, so the repository's tests and
// line count do not see it.
//
// Harness pairs run `bash benchmark/run.sh ARGS` inside two checkouts and
// read the JSON result line the harness prints last:
//
//	go run . -a /path/to/parent -b /path/to/change -pairs 10 \
//	    -metrics 'setup_s|rss_mb|index_mb|failed' -out ../../docs/runs/prNN.md \
//	    -title 'thin_selective' -- --workload thin_selective --seed 1 --seconds 12 --trace 0
//
// Benchmark pairs run two test binaries built with `go test -c` from the
// directory -dir (their package directory) and read their Benchmark lines:
//
//	go run . -bench -a parent.test -b change.test -dir ../../internal/engine \
//	    -pairs 10 -- -test.run '^$' -test.bench ShardSearch -test.benchtime 4000x
//
// With -control the metrics it matches are the control rows: benchmarks
// the change cannot reach, whose deltas measure what two builds differ by
// anyway. Every other row then shows the largest median change among the
// control rows of its unit in its own direction, and a verdict. A change is
// claimed only if its median clears the parent's IQR, its sign-test p is at
// most 0.05 over at least 10 pairs, and it exceeds that control change;
// otherwise it is reported, with the tests it failed:
//
//	go run . -bench -a parent.test -b change.test -dir ../../internal/engine \
//	    -pairs 10 -control '^ShardBuild/(token|grid1024|hybrid1024) ' \
//	    -- -test.run '^$' -test.bench ShardBuild -test.benchtime 10x
//
// With -placebo each pair also runs a third build: the parent with a no-op
// edit to the function the change touches. It measures what recompiling and
// relinking alone move, so it is the control where no row is out of the
// change's reach. Every row's control change is then also the placebo's
// median change against the parent for the same metric, when it moved the
// row's way, and every row gets a verdict:
//
//	go run . -bench -a parent.test -b change.test -placebo placebo.test \
//	    -dir ../../internal/engine -pairs 10 \
//	    -- -test.run '^$' -test.bench ShardSearch -test.benchtime 4000x
//
// The sides rotate: pair p starts with side p mod the side count (parent,
// change, placebo), so with two sides odd pairs run the parent first and even
// pairs the change. The tables go to standard output and, with -out, are
// appended to a markdown file under a heading; progress goes to standard
// error.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

var sides = [3]string{"parent", "change", "placebo"}

// config is one invocation: what to run on each side and how to report it.
type config struct {
	bench bool // test binaries rather than harness checkouts
	// paths are the parent, the change and, if given, the placebo:
	// checkouts, or test binaries.
	paths  []string
	dir    string   // the binaries' working directory
	args   []string // passed to run.sh or to the binaries
	pairs  int
	filter *regexp.Regexp // metrics to tabulate; nil keeps all
	// control marks the control rows; nil tabulates without a verdict.
	control *regexp.Regexp
	title   string
	stderr  io.Writer
}

func main() {
	var (
		cfg           config
		a, b, placebo string
		only, control string
		out           string
	)
	flag.BoolVar(&cfg.bench, "bench", false, "run go test binaries and read their Benchmark lines, not benchmark/run.sh's result line")
	flag.StringVar(&a, "a", "", "the parent: a checkout, or with -bench a test binary")
	flag.StringVar(&b, "b", "", "the change: a checkout, or with -bench a test binary")
	flag.StringVar(&placebo, "placebo", "", "a third side, the parent with a no-op edit: its change against the parent is every row's control")
	flag.StringVar(&cfg.dir, "dir", ".", "with -bench: the directory the binaries run in")
	flag.IntVar(&cfg.pairs, "pairs", 10, "number of alternating pairs")
	flag.StringVar(&only, "metrics", "", "regular expression: tabulate only the metrics it matches (default all)")
	flag.StringVar(&control, "control", "", "regular expression: the metrics it matches are the control rows (adds a control change and a verdict to every other row)")
	flag.StringVar(&out, "out", "", "markdown file the tables are appended to")
	flag.StringVar(&cfg.title, "title", "", "heading of the appended section (default the command)")
	flag.Parse()
	cfg.args = flag.Args()
	cfg.stderr = os.Stderr
	cfg.paths = []string{a, b}
	if placebo != "" {
		cfg.paths = append(cfg.paths, placebo)
	}
	if a == "" || b == "" || cfg.pairs < 1 {
		fmt.Fprintln(os.Stderr, "pair: -a and -b are required, and -pairs must be at least 1")
		flag.Usage()
		os.Exit(2)
	}
	cfg.filter = compileFlag("metrics", only)
	cfg.control = compileFlag("control", control)
	runs, err := cfg.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pair:", err)
		os.Exit(1)
	}
	var doc bytes.Buffer
	if err := cfg.report(&doc, runs); err != nil {
		fmt.Fprintln(os.Stderr, "pair:", err)
		os.Exit(1)
	}
	os.Stdout.Write(doc.Bytes())
	if out != "" {
		if err := appendFile(out, doc.Bytes()); err != nil {
			fmt.Fprintln(os.Stderr, "pair:", err)
			os.Exit(1)
		}
	}
}

// compileFlag compiles the regular expression flag -name was given, nil when
// it was not, and exits on a bad one.
func compileFlag(name, expr string) *regexp.Regexp {
	if expr == "" {
		return nil
	}
	re, err := regexp.Compile(expr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pair: -%s: %v\n", name, err)
		os.Exit(2)
	}
	return re
}

func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pairRun is one pair's readings, one a side: parent, change, placebo.
type pairRun []*metrics

// run executes the pairs, rotating which side goes first.
func (c *config) run() ([]pairRun, error) {
	runs := make([]pairRun, c.pairs)
	for p := range runs {
		runs[p] = make(pairRun, len(c.paths))
		for i := range c.paths {
			side := (p + i) % len(c.paths)
			start := time.Now()
			m, err := c.runSide(side)
			if err != nil {
				return nil, fmt.Errorf("pair %d, %s: %w", p+1, sides[side], err)
			}
			runs[p][side] = m
			fmt.Fprintf(c.stderr, "pair %d/%d %s: %d metrics in %.1f s\n", p+1, c.pairs, sides[side], len(m.names), time.Since(start).Seconds())
		}
	}
	return runs, nil
}

// runSide runs one side once and parses what it printed.
func (c *config) runSide(side int) (*metrics, error) {
	var cmd *exec.Cmd
	if c.bench {
		bin, err := filepath.Abs(c.paths[side])
		if err != nil {
			return nil, err
		}
		cmd = exec.Command(bin, c.args...)
		cmd.Dir = c.dir
	} else {
		cmd = exec.Command("bash", append([]string{"benchmark/run.sh"}, c.args...)...)
		cmd.Dir = c.paths[side]
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w\n%s%s", err, tail(stdout.String()), tail(stderr.String()))
	}
	if c.bench {
		return parseBench(stdout.Bytes())
	}
	return parseHarness(stdout.Bytes())
}

// tail returns the last lines of s, for an error message.
func tail(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n") + "\n"
}

// names lists the metrics to tabulate, in the order the first run printed
// them, then any only later runs printed.
func (c *config) names(runs []pairRun) []string {
	var names []string
	seen := make(map[string]bool)
	for _, r := range runs {
		for _, m := range r {
			for _, n := range m.names {
				if !seen[n] && (c.filter == nil || c.filter.MatchString(n)) {
					seen[n] = true
					names = append(names, n)
				}
			}
		}
	}
	return names
}

// command is the line each side ran, for the report.
func (c *config) command() string {
	words := []string{"bash", "benchmark/run.sh"}
	if c.bench {
		words = []string{filepath.Base(c.paths[0])}
	}
	for _, a := range c.args {
		words = append(words, shellQuote(a))
	}
	return strings.Join(words, " ")
}

func shellQuote(s string) string {
	if s != "" && strings.Trim(s, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._/=:,-") == "" {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}

// summary is one metric's pairs reduced to what the table prints.
type summary struct {
	name          string
	pairs         int
	lower, higher int
	a1, am, a3    float64 // the parent's quartiles
	b1, bm, b3    float64 // the change's
}

// summarize reduces the pairs in which the parent and side printed name; ok
// is false when there are none.
func summarize(name string, runs []pairRun, side int) (s summary, ok bool) {
	var a, b []float64
	for _, r := range runs {
		va, okA := r[0].values[name]
		vb, okB := r[side].values[name]
		if !okA || !okB {
			continue
		}
		a, b = append(a, va), append(b, vb)
		switch {
		case vb < va:
			s.lower++
		case vb > va:
			s.higher++
		}
	}
	if len(a) == 0 {
		return s, false
	}
	s.name, s.pairs = name, len(a)
	s.a1, s.am, s.a3 = quartiles(a)
	s.b1, s.bm, s.b3 = quartiles(b)
	return s, true
}

// change is the median change relative to the parent's median, NaN when
// the parent's median is 0.
func (s *summary) change() float64 {
	if s.am == 0 {
		return math.NaN()
	}
	return (s.bm - s.am) / s.am
}

// clearsIQR reports whether the medians differ by more than the parent's
// interquartile range.
func (s *summary) clearsIQR() bool { return math.Abs(s.bm-s.am) > s.a3-s.a1 }

func (s *summary) p() float64 { return signTest(s.lower, s.higher) }

// unit is the part of a benchmark metric's name after its last space
// ("ns/op" of "ShardBuild/seal ns/op"); a harness metric is its own unit.
func unit(name string) string { return name[strings.LastIndexByte(name, ' ')+1:] }

// controlChange returns the largest median change in s's direction among
// the control rows of s's unit and the placebo's reading of s's own metric,
// and where it came from; 0 and "" when no control moved that way.
func controlChange(s *summary, controls []summary, placebo *summary) (float64, string) {
	d := s.change()
	var best float64
	var from string
	for i := range controls {
		c := &controls[i]
		if unit(c.name) != unit(s.name) {
			continue
		}
		if cd := c.change(); cd*d > 0 && math.Abs(cd) > math.Abs(best) {
			best, from = cd, c.name
		}
	}
	if placebo != nil {
		if cd := placebo.change(); cd*d > 0 && math.Abs(cd) > math.Abs(best) {
			best, from = cd, "placebo"
		}
	}
	return best, from
}

// Minimums of a claim: a change is claimed only if its median clears the
// parent's IQR, its sign test over at least claimPairs pairs gives p at most
// claimP, and it exceeds the largest control change in its direction.
// Otherwise it is reported, with the tests it failed.
const (
	claimPairs = 10
	claimP     = 0.05
)

func verdict(s *summary, control float64) string {
	var failed []string
	if !s.clearsIQR() {
		failed = append(failed, "IQR")
	}
	if s.pairs < claimPairs || s.p() > claimP {
		failed = append(failed, "sign test")
	}
	if d := s.change(); !(math.Abs(d) > math.Abs(control)) { // NaN fails too
		failed = append(failed, "control")
	}
	if len(failed) == 0 {
		return "claimed"
	}
	return "reported (" + strings.Join(failed, ", ") + ")"
}

// percent formats a relative change, "n/a" for NaN.
func percent(d float64) string {
	if math.IsNaN(d) {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f %%", d*100)
}

// report writes the section: heading, command, the summary table and the
// raw readings of every run. With -control or -placebo the summary gains two
// columns: each metric's largest same-direction control change, and its
// verdict.
func (c *config) report(w io.Writer, runs []pairRun) error {
	names := c.names(runs)
	if len(names) == 0 {
		return errors.New("no metric to tabulate")
	}
	title := c.title
	if title == "" {
		title = c.command()
	}
	order := "odd pairs parent first"
	if len(c.paths) == 3 {
		order = "sides rotating parent, change, placebo, each placebo the parent with a no-op edit"
	}
	fmt.Fprintf(w, "## %s\n\n`%s`, %d alternating pairs, %s.\n\n", title, c.command(), len(runs), order)

	judged := c.control != nil || len(c.paths) == 3
	var rows, controls []summary
	for _, n := range names {
		if s, ok := summarize(n, runs, 1); ok {
			rows = append(rows, s)
			if c.control != nil && c.control.MatchString(n) {
				controls = append(controls, s)
			}
		}
	}
	header := []string{"metric", "pairs", "parent q1 / median / q3", "change q1 / median / q3",
		"median change", "change vs parent", "sign-test p", "parent IQR", "clears IQR"}
	if judged {
		header = append(header, "control change", "verdict")
	}
	sum := newTable(header...)
	for i := range rows {
		s := &rows[i]
		clears := "no"
		if s.clearsIQR() {
			clears = "yes"
		}
		cells := []string{s.name, strconv.Itoa(s.pairs),
			num(s.a1) + " / " + num(s.am) + " / " + num(s.a3), num(s.b1) + " / " + num(s.bm) + " / " + num(s.b3),
			percent(s.change()), fmt.Sprintf("%d lower, %d higher", s.lower, s.higher),
			strconv.FormatFloat(s.p(), 'g', 3, 64), num(s.a3 - s.a1), clears}
		if judged {
			if c.control != nil && c.control.MatchString(s.name) {
				cells = append(cells, "", "control")
			} else {
				var placebo *summary
				if len(c.paths) == 3 {
					if p, ok := summarize(s.name, runs, 2); ok {
						placebo = &p
					}
				}
				ctl, from := controlChange(s, controls, placebo)
				note := "none"
				if from != "" {
					note = percent(ctl) + " (" + from + ")"
				}
				cells = append(cells, note, verdict(s, ctl))
			}
		}
		sum.Append(cells...)
	}
	if err := sum.Render(w); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nEvery run:\n\n")
	raw := newTable(append([]string{"metric", "pair", "first"}, sides[:len(c.paths)]...)...)
	for _, n := range names {
		for p, r := range runs {
			cells := []string{n, strconv.Itoa(p + 1), sides[p%len(c.paths)]}
			for _, m := range r {
				cells = append(cells, exact(m, n))
			}
			raw.Append(cells...)
		}
	}
	if err := raw.Render(w); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// num formats a summary figure to four significant digits.
func num(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

// exact formats a raw reading to eight significant digits, or "-" if the
// run did not print it.
func exact(m *metrics, name string) string {
	v, ok := m.values[name]
	if !ok {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', 8, 64)
}
