package main

import (
	"bufio"
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
)

// serverProc is one running mmfserve process.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time // just before exec
	logPath string
	logFile *os.File
	waited  chan struct{}
	waitErr error
}

// freeAddr asks the kernel for an unused loopback port. The listener
// is closed before the server binds it; nothing else on a benchmark
// box races for it in between.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// serverFlags are the exact mmfserve flags of a run (recorded in the
// run record). Everything not named keeps the server's default: WAL
// policy group, 2Q cache of 1024 entries, adaptive coalescing.
func serverFlags(addr, dbDir string, mapped bool, extra []string) []string {
	args := []string{"-addr", addr, "-db", dbDir, "-wal-fsync", "group", "-log-level", "warn"}
	if mapped {
		args = append(args, "-mmap")
	}
	return append(args, extra...)
}

// startServer execs the server binary and returns without waiting for
// it to listen; waitReady does that. GOMAXPROCS is set explicitly so
// the run record states it.
func startServer(bin string, args []string, gomaxprocs int, logPath string) (*serverProc, error) {
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	// Should the generator die without cleaning up (killed at a time cap,
	// a panic), the kernel kills the server with it instead of leaving it
	// on its port and its cores for the next run to meet.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, logPath: logPath, logFile: logFile, waited: make(chan struct{})}
	for i, a := range args {
		if a == "-addr" {
			p.addr = args[i+1]
		}
	}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.waited)
	}()
	return p, nil
}

// waitReady polls /healthz until the server answers, it exits, or the
// deadline passes.
func (p *serverProc) waitReady(timeout time.Duration) error {
	c := newConn(p.addr)
	defer c.close()
	deadline := time.Now().Add(timeout)
	for {
		if status, _, err := c.do("GET", "/healthz", nil); err == nil && status == 200 {
			return nil
		}
		select {
		case <-p.waited:
			return fmt.Errorf("server exited before listening: %v (log: %s)", p.waitErr, p.logPath)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %s (log: %s)", timeout, p.logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the process with sig (SIGTERM drains and saves, SIGKILL
// is the crash) and waits until it has gone.
func (p *serverProc) stop(sig syscall.Signal) error {
	defer p.logFile.Close()
	select {
	case <-p.waited:
		return nil
	default:
	}
	if err := p.cmd.Process.Signal(sig); err != nil {
		return err
	}
	select {
	case <-p.waited:
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-p.waited
		return fmt.Errorf("server ignored %v for 30s; killed", sig)
	}
	if sig == syscall.SIGTERM && p.waitErr != nil {
		return fmt.Errorf("server shutdown: %w", p.waitErr)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir, split into
// the IRS write-ahead logs (*.wal), the rest of the IRS directory and
// everything else (the object database).
func dirBytes(dir string) (total, irsBytes, walBytes int64, err error) {
	irsDir := filepath.Join(dir, "irs") + string(filepath.Separator)
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		if strings.HasPrefix(path, irsDir) {
			if strings.HasSuffix(path, ".wal") {
				walBytes += info.Size()
			} else {
				irsBytes += info.Size()
			}
		}
		return nil
	})
	return total, irsBytes, walBytes, err
}
