//go:build linux

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"shieldstore"
	"shieldstore/internal/client"
)

// moduleRoot walks up from the working directory to the go.mod of the
// shieldstore module: the repository root under `go run ./benchmark`, the
// parent directory under `go test`.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module shieldstore\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: not inside the shieldstore module (no go.mod found)")
		}
		dir = parent
	}
}

// buildServer compiles cmd/shieldstore-server into binDir and returns the
// binary's path and how long the build took.
func buildServer(ctx context.Context, root, binDir string) (string, time.Duration, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(binDir, "shieldstore-server")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/shieldstore-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/shieldstore-server: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// node is one running shieldstore-server child.
type node struct {
	cmd  *exec.Cmd
	addr string
	log  string        // file the child's stderr goes to
	done chan struct{} // closed once the child has been reaped
}

func (n *node) exited() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// cluster is the server side of one workload: a standalone node, or a
// primary and its replica, with their state in one temporary directory.
type cluster struct {
	dir     string
	dial    client.Options
	nodes   []*node
	vlogDir string // "" unless the workload spills
}

// primary is the node clients talk to; replica is nil when standalone.
func (c *cluster) primary() *node { return c.nodes[len(c.nodes)-1] }
func (c *cluster) replica() *node {
	if len(c.nodes) == 2 {
		return c.nodes[0]
	}
	return nil
}

// deploymentSeed is the -seed every server is started with, which the
// stand-in for the attestation service shares. It is not the --seed of the
// request streams: the enclave's keys decide which partition and bucket a
// key hashes to, and that placement is part of the system under test, the
// same on every run, not part of the input.
const deploymentSeed = 42

// dialOptions attests a server started with -seed deploymentSeed.
func dialOptions() client.Options {
	return client.Options{
		Secure:      true,
		Verifier:    shieldstore.AttestationService(deploymentSeed),
		Measurement: shieldstore.Measurement(),
	}
}

// startCluster launches the workload's server process(es) on free
// loopback ports and returns once each answers a Ping over an attested
// session. On error nothing is left running and the directory is gone.
func startCluster(ctx context.Context, bin, tmpRoot string, w *workload) (_ *cluster, err error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, dial: dialOptions()}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	if w.spill {
		c.vlogDir = filepath.Join(dir, "vlog")
	}
	common := append(w.serverFlags(c.vlogDir), "-seed", strconv.Itoa(deploymentSeed))
	if !w.repl {
		_, err = c.start(ctx, bin, "standalone", common)
		return c, err
	}
	replica, err := c.start(ctx, bin, "replica", append(common[:len(common):len(common)],
		"-role", "replica", "-snapshot-dir", filepath.Join(dir, "replica-state")))
	if err != nil {
		return nil, err
	}
	_, err = c.start(ctx, bin, "primary", append(common[:len(common):len(common)],
		"-role", "primary", "-replica-addr", replica.addr))
	return c, err
}

// start runs one server and waits until it serves. A server that exits
// before it serves most likely lost the race for its port (freeAddr
// released it before the server bound it), so that is tried again.
func (c *cluster) start(ctx context.Context, bin, name string, flags []string) (*node, error) {
	for attempt := 1; ; attempt++ {
		n, err := c.launch(ctx, bin, name, flags)
		if err == nil || attempt == 3 || n == nil || !n.exited() {
			return n, err
		}
		c.nodes = c.nodes[:len(c.nodes)-1] // the node that exited
	}
}

// launch returns the node whenever the process was started, error or not.
func (c *cluster) launch(ctx context.Context, bin, name string, flags []string) (*node, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	n := &node{addr: addr, log: filepath.Join(c.dir, name+".log"), done: make(chan struct{})}
	logf, err := os.Create(n.log)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	n.cmd = exec.Command(bin, append([]string{"-listen", addr}, flags...)...)
	n.cmd.Stdout = logf
	n.cmd.Stderr = logf
	// A benchmark killed with SIGKILL still takes its servers with it.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := n.cmd.Start(); err != nil {
		return nil, err
	}
	c.nodes = append(c.nodes, n)
	go func() {
		_ = n.cmd.Wait() // how a killed child exited is not news
		close(n.done)
	}()

	// Readiness is "a client can attest, open a session and ping"; the
	// server's log text is not part of the contract.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if cl, err := client.Dial(addr, c.dial); err == nil {
			err = cl.Ping()
			cl.Close()
			if err == nil {
				return n, nil
			}
		}
		if n.exited() || time.Now().After(deadline) {
			return n, fmt.Errorf("%s server on %s did not become ready: %s", name, addr, tail(n.log))
		}
		select {
		case <-ctx.Done():
			return n, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// kill ends one node with SIGKILL (no shutdown handler runs) and reaps it.
func (n *node) kill() {
	_ = n.cmd.Process.Kill() // already gone is fine
	<-n.done
}

// stop kills every node, waits for each and removes the state directory.
func (c *cluster) stop() {
	for _, n := range c.nodes {
		n.kill()
	}
	os.RemoveAll(c.dir)
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// tail returns the end of a log file for an error message.
func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return strings.TrimSpace(string(b))
}

// cpuSeconds returns the user+system CPU time the live nodes have used,
// from /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks/s).
func (c *cluster) cpuSeconds() (float64, error) {
	total := 0.0
	for _, n := range c.nodes {
		if n.exited() {
			continue
		}
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// The command name (field 2) may hold spaces; fields are counted
		// from the closing parenthesis.
		f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc stat line: %q", b)
		}
		utime, err1 := strconv.ParseFloat(f[11], 64)
		stime, err2 := strconv.ParseFloat(f[12], 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("bad /proc stat line: %q", b)
		}
		total += (utime + stime) / 100
	}
	return total, nil
}

// peakRSSMB sums VmHWM, the peak resident set, over the live nodes.
func (c *cluster) peakRSSMB() (float64, error) {
	total := 0.0
	for _, n := range c.nodes {
		if n.exited() {
			continue
		}
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		_, rest, ok := strings.Cut(string(b), "VmHWM:")
		if !ok {
			return 0, errors.New("no VmHWM in /proc status")
		}
		f := strings.Fields(rest)
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, err
		}
		total += kb / 1024
	}
	return total, nil
}

// selfCPUSeconds is the user+system CPU time of this process.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
