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
// Odd pairs run the parent first, even pairs the change. The tables go to
// standard output and, with -out, are appended to a markdown file under a
// heading; progress goes to standard error.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

var sides = [2]string{"parent", "change"}

// config is one invocation: what to run on each side and how to report it.
type config struct {
	bench  bool      // test binaries rather than harness checkouts
	paths  [2]string // parent and change: checkouts, or test binaries
	dir    string    // the binaries' working directory
	args   []string  // passed to run.sh or to the binaries
	pairs  int
	filter *regexp.Regexp // metrics to tabulate; nil keeps all
	title  string
	stderr io.Writer
}

func main() {
	var (
		cfg  config
		only string
		out  string
	)
	flag.BoolVar(&cfg.bench, "bench", false, "run go test binaries and read their Benchmark lines, not benchmark/run.sh's result line")
	flag.StringVar(&cfg.paths[0], "a", "", "the parent: a checkout, or with -bench a test binary")
	flag.StringVar(&cfg.paths[1], "b", "", "the change: a checkout, or with -bench a test binary")
	flag.StringVar(&cfg.dir, "dir", ".", "with -bench: the directory both binaries run in")
	flag.IntVar(&cfg.pairs, "pairs", 10, "number of alternating pairs")
	flag.StringVar(&only, "metrics", "", "regular expression: tabulate only the metrics it matches (default all)")
	flag.StringVar(&out, "out", "", "markdown file the tables are appended to")
	flag.StringVar(&cfg.title, "title", "", "heading of the appended section (default the command)")
	flag.Parse()
	cfg.args = flag.Args()
	cfg.stderr = os.Stderr
	if cfg.paths[0] == "" || cfg.paths[1] == "" || cfg.pairs < 1 {
		fmt.Fprintln(os.Stderr, "pair: -a and -b are required, and -pairs must be at least 1")
		flag.Usage()
		os.Exit(2)
	}
	if only != "" {
		re, err := regexp.Compile(only)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pair: -metrics:", err)
			os.Exit(2)
		}
		cfg.filter = re
	}
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

// pairRun is one pair's readings, parent then change.
type pairRun [2]*metrics

// run executes the pairs, alternating which side goes first.
func (c *config) run() ([]pairRun, error) {
	runs := make([]pairRun, c.pairs)
	for p := range runs {
		order := [2]int{0, 1}
		if p%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
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

// report writes the section: heading, command, the summary table and the
// raw readings of every run.
func (c *config) report(w io.Writer, runs []pairRun) error {
	names := c.names(runs)
	if len(names) == 0 {
		return errors.New("no metric to tabulate")
	}
	title := c.title
	if title == "" {
		title = c.command()
	}
	fmt.Fprintf(w, "## %s\n\n`%s`, %d alternating pairs, odd pairs parent first.\n\n", title, c.command(), len(runs))

	sum := newTable("metric", "pairs", "parent q1 / median / q3", "change q1 / median / q3",
		"median change", "change vs parent", "sign-test p", "parent IQR", "clears IQR")
	for _, n := range names {
		var a, b []float64
		lower, higher := 0, 0
		for _, r := range runs {
			va, okA := r[0].values[n]
			vb, okB := r[1].values[n]
			if !okA || !okB {
				continue
			}
			a, b = append(a, va), append(b, vb)
			switch {
			case vb < va:
				lower++
			case vb > va:
				higher++
			}
		}
		if len(a) == 0 {
			continue
		}
		a1, am, a3 := quartiles(a)
		b1, bm, b3 := quartiles(b)
		change := "n/a"
		if am != 0 {
			change = fmt.Sprintf("%+.1f %%", (bm-am)/am*100)
		}
		clears := "no"
		if d := bm - am; d > a3-a1 || -d > a3-a1 {
			clears = "yes"
		}
		sum.Append(n, strconv.Itoa(len(a)),
			num(a1)+" / "+num(am)+" / "+num(a3), num(b1)+" / "+num(bm)+" / "+num(b3),
			change, fmt.Sprintf("%d lower, %d higher", lower, higher),
			strconv.FormatFloat(signTest(lower, higher), 'g', 3, 64), num(a3-a1), clears)
	}
	if err := sum.Render(w); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nEvery run:\n\n")
	raw := newTable("metric", "pair", "first", "parent", "change")
	for _, n := range names {
		for p, r := range runs {
			first := sides[p%2]
			raw.Append(n, strconv.Itoa(p+1), first, exact(r[0], n), exact(r[1], n))
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
