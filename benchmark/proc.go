//go:build linux

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSet holds every child the benchmark has started and not yet
// reaped, so that a failure or a signal leaves no `v2v serve` behind.
type procSet struct {
	mu   sync.Mutex
	live map[*server]struct{}
}

func (p *procSet) add(s *server) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live == nil {
		p.live = map[*server]struct{}{}
	}
	p.live[s] = struct{}{}
}

func (p *procSet) remove(s *server) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.live, s)
}

// killAll SIGKILLs and reaps whatever is still running.
func (p *procSet) killAll() {
	p.mu.Lock()
	rest := make([]*server, 0, len(p.live))
	for s := range p.live {
		rest = append(rest, s)
	}
	p.mu.Unlock()
	for _, s := range rest {
		s.kill()
	}
}

// server is one `v2v serve` child process.
type server struct {
	tag     string
	cmd     *exec.Cmd
	base    string // http://host:port once bound
	logPath string
	execAt  time.Time
	done    chan struct{} // closed once the process has been waited for
	set     *procSet
}

const startTimeout = 30 * time.Second

// startServer runs `v2v serve -addr 127.0.0.1:0 args...`, keeps its
// stderr in dir/<tag>.log and returns once the process has logged the
// address it bound and answers /healthz.
func startServer(set *procSet, bin, dir, tag string, args ...string) (*server, error) {
	s := &server{tag: tag, logPath: filepath.Join(dir, tag+".log"), done: make(chan struct{}), set: set}
	logFile, err := os.Create(s.logPath)
	if err != nil {
		return nil, err
	}
	s.cmd = exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	s.execAt = time.Now()
	if err := s.cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", tag, err)
	}
	set.add(s)

	addrc := make(chan string, 1)
	go func() {
		defer close(s.done)
		defer logFile.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			if _, after, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrc <- strings.TrimSpace(after):
				default:
				}
			}
		}
		_ = s.cmd.Wait() // the exit status of a server we stop ourselves carries nothing
		set.remove(s)
	}()

	select {
	case a := <-addrc:
		s.base = "http://" + a
	case <-s.done:
		return nil, fmt.Errorf("%s exited before binding; log tail:\n%s", tag, s.logTail())
	case <-time.After(startTimeout):
		s.kill()
		return nil, fmt.Errorf("%s never reported its address; log tail:\n%s", tag, s.logTail())
	}
	if err := pollFor200(s.base + "/healthz"); err != nil {
		s.kill()
		return nil, fmt.Errorf("%s never answered /healthz (%v); log tail:\n%s", tag, err, s.logTail())
	}
	return s, nil
}

// pollFor200 gets url every 2 ms until it answers 200, for startTimeout
// at most, and returns the last refusal.
func pollFor200(url string) error {
	deadline := time.Now().Add(startTimeout)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks for a graceful shutdown and falls back to SIGKILL.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only when the process is already gone
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		s.kill()
	}
}

// kill is the crash: SIGKILL, then wait until the process is reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only when the process is already gone
	<-s.done
}

func (s *server) logTail() string { return tailOfFile(s.logPath, 20) }

func tailOfFile(path string, lines int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "(no log: " + err.Error() + ")"
	}
	all := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}

// cpuSeconds is the process's user + system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its
	// closing parenthesis. utime and stime are fields 14 and 15.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line for %s", s.tag)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unreadable /proc stat line for %s", s.tag)
	}
	const ticksPerSecond = 100 // USER_HZ on every Linux this runs on
	return (utime + stime) / ticksPerSecond, nil
}

// peakRSSMiB is the process's resident-set high-water mark.
func (s *server) peakRSSMiB() (float64, error) { return vmHWM(s.cmd.Process.Pid) }

// vmHWM reads a live process's resident-set high-water mark in MiB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unreadable VmHWM of process %d: %q", pid, line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for process %d", pid)
}

// runCommand runs one CLI step to completion and returns its wall time
// and peak RSS in MiB. On failure the error carries the step's stderr.
//
// The peak is VmHWM sampled every 10 ms while the step runs, not
// ru_maxrss: Go starts children with vfork, and Linux seeds a vforked
// child's ru_maxrss with the parent's, so wait4 reports the larger of
// the benchmark's own footprint and the command's.
func runCommand(bin string, args ...string) (time.Duration, float64, error) {
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", filepath.Base(bin), err)
	}
	exited := make(chan struct{})
	peak := make(chan float64, 1)
	go func() {
		var hwm float64
		for {
			if v, err := vmHWM(cmd.Process.Pid); err == nil {
				hwm = max(hwm, v)
			}
			select {
			case <-exited:
				peak <- hwm
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()
	err := cmd.Wait()
	took := time.Since(start)
	close(exited)
	mib := <-peak
	if err != nil {
		return took, 0, fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.String())
	}
	return took, mib, nil
}
