package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// moduleRoot walks up from the working directory to the directory holding
// go.mod, so the harness finds cmd/aims-server from `go run ./bench` (run
// at the root) and from `go test` (run inside bench/) alike.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod above the working directory; run from the repository checkout")
		}
		dir = parent
	}
}

// buildServer compiles cmd/aims-server into workDir and returns the binary
// path and how long the build took.
func buildServer(root, workDir string) (string, time.Duration, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(workDir, "aims-server")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aims-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("bench: go build ./cmd/aims-server: %v\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// serverProc is one aims-server child process. It is observed from
// outside only: /proc for CPU and memory, the admin plane for counters.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string // dialable wire endpoint, tcp://127.0.0.1:port
	admin  string // http://127.0.0.1:port
	execAt time.Time

	logMu sync.Mutex
	log   bytes.Buffer
	done  chan struct{} // closed once the stderr reader has drained
}

// startServer runs the server with its default flags apart from the
// listeners, -quiet and -metrics 0; a non-empty dataDir turns durability on
// (so -fsync batch and default snapshots). It returns once both listeners
// have logged their bound addresses.
func startServer(bin, dataDir string) (*serverProc, error) {
	args := []string{"-listen", "tcp://127.0.0.1:0", "-admin", "127.0.0.1:0", "-quiet", "-metrics", "0"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	s := &serverProc{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s.execAt = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	type addrs struct{ wire, admin string }
	found := make(chan addrs, 1)
	go func() {
		defer close(s.done)
		var a addrs
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.logMu.Lock()
			s.log.WriteString(line + "\n")
			s.logMu.Unlock()
			if v := fieldAfter(line, "aims-server listening on "); v != "" {
				a.wire = v
			}
			if v := fieldAfter(line, "admin plane on "); v != "" {
				a.admin = v
			}
			if !sent && a.wire != "" && a.admin != "" {
				sent = true
				found <- a
			}
		}
	}()
	select {
	case a := <-found:
		s.addr, s.admin = a.wire, a.admin
		return s, nil
	case <-s.done:
		s.cmd.Wait()
		return nil, fmt.Errorf("bench: server exited before listening:\n%s", s.logs())
	case <-time.After(120 * time.Second):
		s.kill()
		return nil, fmt.Errorf("bench: server did not listen within 120s:\n%s", s.logs())
	}
}

// fieldAfter returns the whitespace-delimited token following marker.
func fieldAfter(line, marker string) string {
	i := strings.Index(line, marker)
	if i < 0 {
		return ""
	}
	rest := strings.Fields(line[i+len(marker):])
	if len(rest) == 0 {
		return ""
	}
	return rest[0]
}

func (s *serverProc) logs() string {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.log.String()
}

// kill is SIGKILL: no drain, no final snapshot. It waits for the process
// and its stderr reader to end.
func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	<-s.done
	s.cmd.Wait()
}

// cpu returns the child's cumulative CPU time: the on-CPU nanoseconds the
// scheduler has charged to each of its threads. (/proc/<pid>/stat reports
// the same total in 10 ms ticks, too coarse for a window that burns under a
// second of CPU.) A Go process keeps its threads, so none leave the sum.
func (s *serverProc) cpu() (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("bench: no schedstat for server pid %d", s.cmd.Process.Pid)
	}
	var total time.Duration
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		ns, err := parseSchedstat(string(b))
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return total, nil
}

// parseSchedstat extracts the on-CPU time, the first field of a
// /proc/<pid>/task/<tid>/schedstat line.
func parseSchedstat(line string) (time.Duration, error) {
	f := strings.Fields(line)
	if len(f) < 1 {
		return 0, fmt.Errorf("bench: empty schedstat line")
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bench: bad schedstat line %q", line)
	}
	return time.Duration(ns), nil
}

// rssPeakMiB returns the child's resident-set high-water mark (VmHWM).
func (s *serverProc) rssPeakMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc status")
}

// scrape reads the server's Prometheus exposition into series → value.
// Series keep their label set verbatim (`aims_seal_seconds_count{mode="incremental"}`).
func (s *serverProc) scrape() (map[string]float64, error) {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(s.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: GET /metrics: %s", resp.Status)
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (map[string]float64, error) {
	vals := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Bucket lines may carry an OpenMetrics exemplar suffix.
		if ex := strings.Index(line, " # "); ex >= 0 {
			line = line[:ex]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		vals[line[:sp]] = v
	}
	return vals, sc.Err()
}

// scrapeDelta is after−before per series; series absent before count from 0.
func scrapeDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
