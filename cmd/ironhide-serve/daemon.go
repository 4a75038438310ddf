package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"ironhide/internal/service"
)

// selftestApp is the application the chaos and fleet selftests query.
const selftestApp = "aes-query"

// daemon is one ironhide-serve child process that the chaos and fleet
// selftests drive over real sockets: this binary re-executed in serving
// mode on a free local port, with its own persistent store directory.
type daemon struct {
	addr  string // host:port it listens on
	url   string // base URL, "http://" + addr
	store string // its -store directory
	cmd   *exec.Cmd
}

// newDaemon reserves a free port and a temp store directory; nothing runs
// until start. close releases both.
func newDaemon() (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "ironhide-selftest-")
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	return &daemon{addr: addr, url: "http://" + addr, store: dir}, nil
}

// start spawns the daemon with the selftests' serving flags plus extra,
// and waits until it reports ready.
func (d *daemon) start(ctx context.Context, dilation int64, extra ...string) error {
	args := append([]string{
		"-addr", d.addr,
		"-store", d.store,
		"-dilation", strconv.FormatInt(dilation, 10),
		"-admit", "8", "-admit-queue", "16",
	}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn daemon %s: %w", d.url, err)
	}
	d.cmd = cmd
	if err := (&service.Client{BaseURL: d.url}).WaitReady(ctx, 20*time.Second); err != nil {
		return fmt.Errorf("daemon %s never became ready: %w", d.url, err)
	}
	return nil
}

// kill SIGKILLs the daemon — no drain, no fsync-on-exit — and reaps it.
// It is a no-op once the daemon has exited.
func (d *daemon) kill() error {
	if d.cmd == nil {
		return nil
	}
	err := d.cmd.Process.Kill()
	_ = d.cmd.Wait() // reap; "signal: killed" is the expected status
	d.cmd = nil
	return err
}

// drain SIGTERMs the daemon and requires a clean exit within 40s.
func (d *daemon) drain() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM %s: %w", d.url, err)
	}
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		d.cmd = nil
		if err != nil {
			return fmt.Errorf("daemon %s drain exit: %w", d.url, err)
		}
		return nil
	case <-time.After(40 * time.Second):
		return fmt.Errorf("daemon %s did not drain within 40s of SIGTERM", d.url)
	}
}

// close kills the daemon if it still runs — a failed selftest must not
// leave a stray daemon behind — and removes its store.
func (d *daemon) close() {
	_ = d.kill()
	_ = os.RemoveAll(d.store)
}

// freePort reserves then releases an ephemeral port for a child daemon.
// There is a small reuse race, acceptable for a test harness.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
