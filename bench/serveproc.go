package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// serverProc is one running cmd/t3serve, started over its documented flags
// and observed only through /healthz and /metrics.json.
type serverProc struct {
	cmd      *exec.Cmd
	httpAddr string
	tcpAddr  string
	flags    []string
	stderr   bytes.Buffer
	client   *http.Client
	exited   chan struct{} // closed once cmd.Wait has returned
}

// freePort asks the kernel for an unused loopback port. The port is released
// again before t3serve binds it, so startServer retries on a lost race.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer boots t3serve on two free ports and waits until /healthz
// answers. extra are additional t3serve flags (e.g. -cache 8192).
func startServer(bin, model string, extra ...string) (*serverProc, error) {
	var last error
	for range 5 {
		hp, err := freePort()
		if err != nil {
			return nil, fmt.Errorf("picking a port: %w", err)
		}
		tp, err := freePort()
		if err != nil {
			return nil, fmt.Errorf("picking a port: %w", err)
		}
		s := &serverProc{
			httpAddr: "127.0.0.1:" + strconv.Itoa(hp),
			tcpAddr:  "127.0.0.1:" + strconv.Itoa(tp),
			client:   &http.Client{Timeout: 5 * time.Second},
			exited:   make(chan struct{}),
		}
		s.flags = append([]string{"-addr", s.httpAddr, "-tcp", s.tcpAddr, "-model", model}, extra...)
		s.cmd = exec.Command(bin, s.flags...)
		s.cmd.Stderr = &s.stderr
		// The server dies with the workload process even if that process is
		// killed before it can stop the server itself.
		s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := s.cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting t3serve: %w", err)
		}
		go func() {
			_ = s.cmd.Wait() // the exit status of a server we signal is not news
			close(s.exited)
		}()
		if last = s.waitHealthy(10 * time.Second); last == nil {
			return s, nil
		}
		s.stop()
		last = fmt.Errorf("%w; t3serve stderr: %s", last, bytes.TrimSpace(s.stderr.Bytes()))
	}
	return nil, last
}

func (s *serverProc) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := s.client.Get("http://" + s.httpAddr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return errors.New("t3serve exited before becoming healthy")
		case <-time.After(2 * time.Millisecond):
		}
	}
	return errors.New("t3serve did not become healthy")
}

// serverSnapshot is the part of /metrics.json the benchmark reads.
type serverSnapshot struct {
	Counters   map[string]uint64  `json:"counters"`
	Gauges     map[string]float64 `json:"gauges"`
	Histograms map[string]struct {
		Count uint64  `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

func (s *serverProc) snapshot() (*serverSnapshot, error) {
	resp, err := s.client.Get("http://" + s.httpAddr + "/metrics.json")
	if err != nil {
		return nil, fmt.Errorf("reading /metrics.json: %w", err)
	}
	defer resp.Body.Close()
	var snap serverSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /metrics.json: %w", err)
	}
	return &snap, nil
}

// stop terminates the server and waits for it, returning its peak resident
// set in MiB. SIGTERM lets t3serve drain; a server that ignores it for three
// seconds is killed.
func (s *serverProc) stop() (rssMiB float64) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(3 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rssMiB
}
