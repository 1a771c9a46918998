package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
)

// buildDir holds everything the harness writes: the server binary, span
// files and results. The root .gitignore names it.
const buildDir = ".bench_build"

// buildServer compiles cmd/vgbl-server once per harness run and returns
// the binary's path and how long the build took (reported apart from
// setup_s). It must run from the module root.
func buildServer() (string, time.Duration, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "vgbl-server"))
	if err != nil {
		return "", 0, err
	}
	began := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/vgbl-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/vgbl-server: %v\n%s", err, out)
	}
	return bin, time.Since(began), nil
}

// children tracks every live child so a signal or an early exit can kill
// them all.
var children struct {
	mu   sync.Mutex
	live map[*server]bool
}

func killChildren() {
	children.mu.Lock()
	var all []*server
	for s := range children.live {
		all = append(all, s)
	}
	children.mu.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// tailBuffer keeps the last max bytes written to it: the child's stderr,
// printed when a check fails.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// server is one vgbl-server child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	pid    int
	stderr *tailBuffer
	done   chan struct{} // closed when the process has been waited for

	execAt   stamp
	listenAt stamp // the listen line was read: courses published

	stopOnce sync.Once
}

var listenLine = regexp.MustCompile(`listening on (http://[0-9.]+:[0-9]+)`)

// startServer execs the prebuilt binary on port 0 with the given extra
// flags, parses the listen line for the address and waits for /healthz.
func startServer(bin string, extra ...string) (*server, error) {
	name := filepath.Base(bin)
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	s := &server{cmd: exec.Command(bin, args...), stderr: &tailBuffer{max: 16 << 10}, done: make(chan struct{})}
	s.cmd.Stderr = s.stderr
	setDeathSignal(s.cmd)
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.execAt = now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	s.pid = s.cmd.Process.Pid
	children.mu.Lock()
	if children.live == nil {
		children.live = map[*server]bool{}
	}
	children.live[s] = true
	children.mu.Unlock()

	addr := make(chan string, 1)
	go func() {
		// Read the banner for the address, then keep draining so the
		// child never blocks on a full pipe; Wait only after EOF.
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if m := listenLine.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
		s.cmd.Wait()
		close(s.done)
	}()
	select {
	case base, ok := <-addr:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("%s exited before listening:\n%s", name, s.stderr)
		}
		s.base = base
		s.listenAt = now()
	case <-time.After(120 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not listen within 120s:\n%s", name, s.stderr)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("%s /healthz never answered 200:\n%s", name, s.stderr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return s, nil
}

// startEcho starts the harness's own binary as the exchange reference's
// echo server and returns the reference that posts to it.
func startEcho() (*server, *refExchange, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	echo, err := startServer(self, "-echo")
	if err != nil {
		return nil, nil, fmt.Errorf("echo child: %w", err)
	}
	ref, err := newRefExchange(echo.base)
	if err != nil {
		echo.stop()
		return nil, nil, err
	}
	return echo, ref, nil
}

// stop kills the child and waits until it has ended.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		s.cmd.Process.Kill()
		<-s.done
		children.mu.Lock()
		delete(children.live, s)
		children.mu.Unlock()
	})
}

// get fetches a scrape endpoint on the harness's own default client,
// outside the timed transport.
func (s *server) get(path string) ([]byte, error) {
	resp, err := http.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// scrape is one reading of the server's /metrics: series (namespace
// stripped, labels kept verbatim) → value.
type scrape map[string]float64

// metricsNamespace is the registry namespace vgbl-server prefixes every
// family with; families are read by their bare names.
const metricsNamespace = "vgbl_"

func (s *server) scrape() (scrape, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := scrape{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err != nil {
			continue
		}
		out[strings.TrimPrefix(string(line[:i]), metricsNamespace)] = v
	}
	return out, nil
}

// delta is after − before for one series (0 when absent from both).
func delta(before, after scrape, series string) float64 { return after[series] - before[series] }

// histMeanUS is a histogram family's Δsum/Δcount in microseconds over
// the window; labels is "" or a `{k="v"}` suffix.
func histMeanUS(before, after scrape, family, labels string) float64 {
	n := delta(before, after, family+"_count"+labels)
	if n == 0 {
		return 0
	}
	return delta(before, after, family+"_sum"+labels) / n * 1e6
}

// playStats is the part of /play/stats the checks read.
type playStats struct {
	Created int64 `json:"sessions_created"`
	Closed  int64 `json:"sessions_closed"`
}

func (s *server) playStats() (playStats, error) {
	var st playStats
	body, err := s.get("/play/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// telemetrySnapshot is the part of /telemetry/stats the checks read.
type telemetrySnapshot struct {
	Pending int `json:"pending"`
	Courses map[string]struct {
		Events int `json:"events"`
	} `json:"courses"`
}

func (t *telemetrySnapshot) events() (n int) {
	for _, c := range t.Courses {
		n += c.Events
	}
	return n
}

func (s *server) telemetryStats() (telemetrySnapshot, error) {
	var st telemetrySnapshot
	body, err := s.get("/telemetry/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// drainTelemetry polls until the server has applied every accepted
// batch and returns how long that took.
func (s *server) drainTelemetry() (time.Duration, telemetrySnapshot, error) {
	began, beganRef := time.Now(), now()
	for {
		st, err := s.telemetryStats()
		if err != nil {
			return 0, st, err
		}
		if st.Pending == 0 {
			return since(beganRef), st, nil
		}
		if time.Since(began) > 10*time.Second {
			return 0, st, fmt.Errorf("telemetry still has %d batches pending after 10s", st.Pending)
		}
		time.Sleep(time.Millisecond)
	}
}
