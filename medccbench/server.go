package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one medcc-serve process started by the benchmark.
type server struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	done    chan struct{} // closed once the process has been waited for
	waitErr error

	mu   sync.Mutex
	logs bytes.Buffer // stderr after the listen line, for failure reports
}

// startServer runs the medcc-serve binary on a free loopback port and
// returns once it has printed its listen address.
func startServer(bin string, args []string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// If the benchmark itself is killed, the kernel kills the server too.
	// The signal follows the OS thread that started the server, not the
	// process, and the load generator's senders end their locked threads;
	// so the server is started and reaped on a thread of its own.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread() // never unlocked: the thread ends with the goroutine
		if err := cmd.Start(); err != nil {
			started <- err
			return
		}
		started <- nil
		s.watch(stderr, addr)
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	select {
	case a, ok := <-addr:
		if !ok {
			<-s.done
			return nil, fmt.Errorf("medcc-serve exited before listening: %w: %s", s.waitErr, s.logTail())
		}
		s.base = "http://" + a
		return s, nil
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, errors.New("medcc-serve did not listen within 60s")
	}
}

// watch reads the server's standard error until the process exits:
// the listen address goes to addr (closed unsent if the server never
// listens), the rest to the log. It then reaps the process and closes
// done.
func (s *server) watch(stderr io.Reader, addr chan<- string) {
	sc := bufio.NewScanner(stderr)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if !sent {
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				addr <- a
				sent = true
				continue
			}
		}
		s.mu.Lock()
		s.logs.WriteString(line + "\n")
		s.mu.Unlock()
	}
	if !sent {
		close(addr)
	}
	s.waitErr = s.cmd.Wait()
	close(s.done)
}

// stop asks the server to drain (SIGTERM) and waits for it to exit.
// medcc-serve installs its SIGTERM handler only after it starts
// answering, so a stop right after start-up can end it by the signal's
// default action; that still counts as stopped.
func (s *server) stop() error {
	select {
	case <-s.done:
		return s.waitErr
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.done:
		var ee *exec.ExitError
		if errors.As(s.waitErr, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return s.waitErr
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("medcc-serve did not exit within 20s of SIGTERM")
	}
}

// kill ends the server at once, if it still runs, and waits for it.
func (s *server) kill() {
	select {
	case <-s.done:
	default:
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// newClient is the load generator's HTTP client: at most conns
// keep-alive connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// do sends one request and reads the whole answer into buf.
func do(c *http.Client, method, url string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Staircases  int   `json:"staircases"`
}

func getJSON(c *http.Client, url string, v any) error {
	var buf bytes.Buffer
	code, err := do(c, http.MethodGet, url, nil, &buf)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, code)
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(c *http.Client, base string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var h struct{ Status string }
		err := getJSON(c, base+"/healthz", &h)
		if err == nil && h.Status == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("GET /healthz: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// logTail returns the captured server log for error messages.
func (s *server) logTail() string {
	s.mu.Lock()
	out := s.logs.String()
	s.mu.Unlock()
	if len(out) > 2000 {
		out = out[len(out)-2000:]
	}
	return strings.TrimSpace(out)
}
