package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/core"
)

// paths locates the repository and the benchmark's scratch directory.
// Everything the benchmark writes lives under out (bench/out).
type paths struct {
	root string // repository root, holds go.mod of module repro
	out  string
}

// findPaths accepts being started from the repository root (the driver,
// through run.sh) or from bench/ (go run .).
func findPaths() (paths, error) {
	for _, root := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(root, "cmd", "amf-server", "main.go")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, "bench", "go.mod")); err != nil {
			continue
		}
		abs, err := filepath.Abs(root)
		if err != nil {
			return paths{}, err
		}
		return paths{root: abs, out: filepath.Join(abs, "bench", "out")}, nil
	}
	return paths{}, fmt.Errorf("run from the repository root or from bench/: cmd/amf-server not found")
}

// goEnv keeps the Go toolchain's caches and temporary files inside out.
func (p paths) goEnv() []string {
	return append(os.Environ(),
		"GOCACHE="+filepath.Join(p.out, "gocache"),
		"GOTMPDIR="+p.mkdir("gotmp"),
		"GOFLAGS=-mod=mod",
		"GOPROXY=off",
		"GOTOOLCHAIN=local",
	)
}

func (p paths) mkdir(name string) string {
	dir := filepath.Join(p.out, name)
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces at first use
	return dir
}

func (p paths) serverBin() string { return filepath.Join(p.out, "bin", "amf-server") }

// buildServer compiles cmd/amf-server from the checkout's source.
func (p paths) buildServer() (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", p.serverBin(), "./cmd/amf-server")
	cmd.Dir = p.root
	cmd.Env = p.goEnv()
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("building amf-server: %w\n%s", err, out)
	}
	return time.Since(start), nil
}

// server is one running amf-server process.
type server struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
}

func capacityFlag(sites int) string {
	return strings.TrimSuffix(strings.Repeat("1,", sites), ",")
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs amf-server with product-default flags: only the
// listen address, instance shape, policy, durability and logging are set.
func startServer(bin string, w workloadSpec, dataDir string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-listen", addr,
		"-capacity", capacityFlag(w.Components * w.SitesPer),
		"-policy", w.Policy,
		"-log-level", "error",
		"-metrics-on-exit=false",
	}
	if w.WAL {
		args = append(args, "-data-dir", dataDir)
	}
	if w.Shards > 1 {
		args = append(args, "-cluster-shards", strconv.Itoa(w.Shards))
	}
	s := &server{cmd: exec.Command(bin, args...), url: "http://" + addr}
	s.cmd.Stderr = &s.stderr
	// If the benchmark dies, the server must not outlive it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	return s, nil
}

// waitReady polls GET /v1/readyz until it answers 200.
func (s *server) waitReady(ctx context.Context, c *conn) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, err := c.call(ctx, "GET", "/v1/readyz", nil, [2]string{})
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("server not ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill stops the process the hard way — SIGKILL, no final snapshot — and
// waits until it is gone. It returns what the server wrote to stderr.
func (s *server) kill() string {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait() // the exit status of a killed process says nothing
	return s.stderr.String()
}

// cpuSeconds reads the server's user+system CPU time from /proc.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after ")".
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unparsable /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat times")
	}
	const clockTick = 100 // USER_HZ on Linux
	return (utime + stime) / clockTick, nil
}

// peakRSSMiB reads the server's peak resident set (VmHWM).
func (s *server) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

func batchRequest(base *core.Instance) []api.AddJobRequest {
	jobs := make([]api.AddJobRequest, len(base.JobName))
	for j, name := range base.JobName {
		jobs[j] = api.AddJobRequest{ID: name, Weight: 1, Demand: base.Demand[j], Work: base.Work[j]}
	}
	return jobs
}

// setUp boots a server on an empty data directory, waits for readiness,
// registers the base jobs and reads the full allocation once: the time a
// fresh deployment takes before it serves its first complete answer.
func setUp(ctx context.Context, bin string, w workloadSpec, base *core.Instance, dataDir string) (*server, time.Duration, error) {
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, 0, err
	}
	jobs := batchRequest(base)
	start := time.Now()
	s, err := startServer(bin, w, dataDir)
	if err != nil {
		return nil, 0, err
	}
	c := newConn(s.url, nil)
	defer c.close()
	err = s.waitReady(ctx, c)
	if err == nil {
		err = c.populate(ctx, jobs)
	}
	if err == nil {
		_, err = c.call(ctx, "GET", "/v1/allocation", nil, [2]string{})
	}
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w\n%s", err, s.kill())
	}
	return s, time.Since(start), nil
}
