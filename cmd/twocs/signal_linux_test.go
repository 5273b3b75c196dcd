package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// helperEnv marks a child started by TestSecondSignalKillsStuckRun.
const helperEnv = "TWOCS_TEST_HELPER_MAIN"

// TestHelperMain is not a test on its own: in a child process started
// with helperEnv set it runs main on the arguments after "--".
func TestHelperMain(t *testing.T) {
	if os.Getenv(helperEnv) != "1" {
		return
	}
	for i, a := range os.Args {
		if a == "--" {
			os.Args = append([]string{os.Args[0]}, os.Args[i+1:]...)
			break
		}
	}
	main()
	os.Exit(0)
}

// TestSecondSignalKillsStuckRun drives main's signal wiring in a child
// process. The child streams sweep-stream into a FIFO that nobody
// drains, so once the FIFO is full it blocks in a sink write that
// cancellation cannot end. The first SIGTERM cancels its run and must
// leave it alive; the second must kill it within a few seconds.
func TestSecondSignalKillsStuckRun(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "rows.ndjson")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	// A read end that never reads: opened non-blocking, it only lets
	// the test see how many bytes wait in the FIFO.
	probe, err := os.OpenFile(fifo, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()

	var stderr bytes.Buffer
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperMain$", "--",
		"sweep-stream", "-scenarios", "2000", "-out", fifo)
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// exited closes once the child is reaped, with its error in waitErr.
	exited := make(chan struct{})
	var waitErr error
	go func() {
		waitErr = cmd.Wait()
		close(exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			t.Error("child survived SIGKILL")
		}
	})

	// The child is stuck once the FIFO holds bytes and stops filling.
	queued := func() int {
		var n int32
		if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, probe.Fd(), syscall.TIOCINQ,
			uintptr(unsafe.Pointer(&n))); errno != 0 {
			t.Fatalf("FIONREAD: %v", errno)
		}
		return int(n)
	}
	last, steady := 0, 0
	for deadline := time.Now().Add(60 * time.Second); steady < 4; {
		select {
		case <-exited:
			t.Fatalf("child exited before it was stuck: %v\n%s", waitErr, stderr.Bytes())
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("child never filled the FIFO (%d bytes queued)", last)
		}
		n := queued()
		if n > 0 && n == last {
			steady++
		} else {
			steady = 0
		}
		last = n
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		t.Fatalf("first SIGTERM ended a run stuck in a write: %v", waitErr)
	case <-time.After(500 * time.Millisecond):
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		var ee *exec.ExitError
		if !errors.As(waitErr, &ee) {
			t.Fatalf("child: %v", waitErr)
		}
		ws, ok := ee.Sys().(syscall.WaitStatus)
		if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGTERM {
			t.Fatalf("child ended with %v, want killed by SIGTERM", waitErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second SIGTERM did not kill the stuck run within 5 s")
	}
}
