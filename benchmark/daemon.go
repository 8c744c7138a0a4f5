package main

// The sealserver subprocess: build it from this checkout, boot it from a
// segment directory on a reserved loopback port, watch its CPU and memory
// through /proc, and require a clean SIGTERM drain at the end.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/sealserver of the checkout rooted at repo.
func buildServer(repo, outDir string) (string, error) {
	out, err := filepath.Abs(filepath.Join(outDir, "sealserver"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", out, "./cmd/sealserver")
	cmd.Dir = repo
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building sealserver: %w\n%s", err, msg)
	}
	return out, nil
}

// freePort reserves a loopback port by binding and releasing it: sealserver
// cannot report which port ":0" resolved to.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:PORT
	stderr string // path of the captured stderr
	exited chan struct{}
	err    error // cmd.Wait's result, valid once exited is closed
}

const (
	bootDeadline  = 60 * time.Second
	drainDeadline = 30 * time.Second
)

// startDaemon boots sealserver from segDir with the benchmark's fixed flags
// and returns once /readyz answers 200. Another process can take the
// reserved port between release and bind, so a boot that dies is retried on a
// fresh port.
func startDaemon(bin, segDir, logDir string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := startDaemonOnce(bin, segDir, logDir)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func startDaemonOnce(bin, segDir, logDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.CreateTemp(logDir, "sealserver-*.stderr")
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin,
		"-method", "seal", "-shards", "4", "-compress", "-segments", segDir,
		"-addr", addr, "-no-query-log", "-warmup", "64")
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, stderr: logFile.Name(), exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()

	deadline := time.Now().Add(bootDeadline)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("sealserver exited during boot: %v\n%s", d.err, d.stderrTail())
		default:
		}
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("sealserver not ready within %v\n%s", bootDeadline, d.stderrTail())
}

// stop sends SIGTERM and requires the documented clean drain: exit status 0.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return fmt.Errorf("sealserver died before shutdown: %v\n%s", d.err, d.stderrTail())
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(drainDeadline):
		d.kill()
		return fmt.Errorf("sealserver did not drain within %v\n%s", drainDeadline, d.stderrTail())
	}
	if d.err != nil {
		return fmt.Errorf("sealserver exited uncleanly: %v\n%s", d.err, d.stderrTail())
	}
	return nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already gone is fine
	<-d.exited
}

// stderrTail surfaces the end of the captured stderr, for failures only.
func (d *daemon) stderrTail() string {
	data, err := os.ReadFile(d.stderr)
	if err != nil {
		return ""
	}
	if len(data) > 4096 {
		data = data[len(data)-4096:]
	}
	return "--- sealserver stderr ---\n" + string(data)
}

// clockTick is USER_HZ, the unit of /proc/PID/stat's utime and stime: 100 on
// every Linux ABI Go supports.
const clockTick = 100

// cpuSeconds reads the daemon's cumulative user+system CPU time.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ")".
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(fields[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return (utime + stime) / clockTick, nil
}

// peakRSSMB reads the daemon's high-water resident set (VmHWM): heap plus
// every mapped segment page it touched.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrapeMetrics fetches and parses /metrics.
func (d *daemon) scrapeMetrics() (scrape, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return parseScrape(resp.Body)
}
