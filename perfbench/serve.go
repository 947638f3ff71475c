package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// child is one running qec-serve process.
type child struct {
	cmd  *exec.Cmd
	base string
	logs bytes.Buffer
	// done is closed once the process has exited and been reaped.
	done chan struct{}
	// setup is the time from spawn to the first healthy /healthz, and
	// setupRSS the peak resident set (VmHWM) then, in bytes.
	setup    time.Duration
	setupRSS int64
}

// spawn starts qec-serve for w and waits until /healthz answers 200.
func spawn(bin string, w *workload) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c := &child{base: "http://" + addr}
	c.cmd = exec.Command(bin, w.serverArgs(addr)...)
	c.cmd.Stdout = &c.logs
	c.cmd.Stderr = &c.logs
	// Should the benchmark itself be killed, its servers die with it.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start qec-serve: %w", err)
	}
	c.done = make(chan struct{})
	go func() {
		// The exit status carries nothing: the process is only ever stopped
		// by stop, or has failed before it was healthy, which the logs show.
		_ = c.cmd.Wait()
		close(c.done)
	}()
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.setup = time.Since(start)
				if c.setupRSS, err = peakRSS(c.cmd.Process.Pid); err != nil {
					c.stop()
					return nil, err
				}
				return c, nil
			}
		}
		select {
		case <-c.done:
			return nil, fmt.Errorf("qec-serve exited before it was healthy:\n%s", c.logs.String())
		default:
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("qec-serve not healthy after 60s:\n%s", c.logs.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop ends the process, gracefully first, and waits until it has exited.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// cpuTime is the process's user+sys CPU time so far, from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the command name, which is in parentheses and may hold
	// spaces: state is field 3, utime 14 and stime 15 of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	// The kernel reports these in USER_HZ, which is 100 on Linux.
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// peakRSS is the process's peak resident set (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// fetchStats fetches the server's /stats.
func fetchStats(client *http.Client, base string) (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
