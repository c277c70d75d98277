package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running iupdater process (serve or replicate) listening on
// a loopback port the kernel picked.
type proc struct {
	cmd  *exec.Cmd
	addr string
	// done is closed once the process has exited and its log is drained.
	done chan struct{}
	// logTail holds the last lines the process logged, for diagnostics.
	logTail []string
}

// listenLine matches the log line both serve and replicate print once
// their listener is open: "... on 127.0.0.1:PORT (POST ...".
var listenLine = regexp.MustCompile(` on (127\.0\.0\.1:\d+) \(`)

const startTimeout = 60 * time.Second

// startProc runs the iupdater binary with args (under taskset when the
// servers are pinned) and returns once the process logs its listen
// address. The process's log (stderr) is drained for its whole life, so a
// chatty server never blocks on a full pipe.
func startProc(cfg runConfig, args ...string) (*proc, error) {
	bin := cfg.bin
	if cfg.serverCPUs != "" {
		args = append([]string{"-c", cfg.serverCPUs, bin}, args...)
		bin = "taskset"
	}
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if !found {
				if m := listenLine.FindStringSubmatch(line); m != nil {
					found = true
					addr <- m[1]
				}
			}
			if len(p.logTail) == 20 {
				p.logTail = p.logTail[1:]
			}
			p.logTail = append(p.logTail, line)
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
	}()
	select {
	case p.addr = <-addr:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s %v exited before listening: %s", bin, args, strings.Join(p.logTail, " | "))
	case <-time.After(startTimeout):
		p.stop()
		return nil, fmt.Errorf("%s %v did not listen within %s", bin, args, startTimeout)
	}
}

// stop sends SIGTERM (serve drains and closes its stores), escalates to
// SIGKILL after 10 s, and waits until the process has exited.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// healthz is the /healthz response body.
type healthz struct {
	OK      bool   `json:"ok"`
	Version uint64 `json:"version"`
	Sites   int    `json:"sites"`
}

func getHealthz(c *httpConn) (healthz, error) {
	var h healthz
	b, err := c.get("/healthz")
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(b, &h)
}

// waitReady polls the leader until /healthz answers and GET /sites lists
// every site, then — with a follower — polls the follower back-to-back
// until it serves the leader's version.
func waitReady(leader, follower *httpConn, sites []string) error {
	deadline := time.Now().Add(startTimeout)
	var h healthz
	for {
		var err error
		if h, err = getHealthz(leader); err == nil && h.OK && h.Sites == len(sites) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leader not ready: %v (healthz %+v)", err, h)
		}
		sleepUntil(time.Now().Add(500 * time.Microsecond))
	}
	b, err := leader.get("/sites")
	if err != nil {
		return err
	}
	var listing struct {
		Sites []struct {
			Name string `json:"name"`
		} `json:"sites"`
	}
	if err := json.Unmarshal(b, &listing); err != nil {
		return fmt.Errorf("decoding /sites: %w", err)
	}
	listed := make(map[string]bool, len(listing.Sites))
	for _, s := range listing.Sites {
		listed[s.Name] = true
	}
	for _, name := range sites {
		if !listed[name] {
			return fmt.Errorf("site %s missing from GET /sites", name)
		}
	}
	if follower == nil {
		return nil
	}
	for {
		fh, err := getHealthz(follower)
		if err == nil && fh.Version == h.Version {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower not synced to v%d: %v (healthz %+v)", h.Version, err, fh)
		}
	}
}
