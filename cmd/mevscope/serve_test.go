//go:build unix

package main

import (
	"bufio"
	"flag"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"mevscope"
)

// TestServeDrainsOnSIGTERM: `mevscope serve -addr 127.0.0.1:0` prints
// the address it bound, answers /v1/manifest there, and on SIGTERM stops
// accepting, drains and exits 0 within a few seconds. The test re-runs
// its own binary as the command, passing the command line after "--".
func TestServeDrainsOnSIGTERM(t *testing.T) {
	if args := flag.Args(); len(args) > 0 && args[0] == "serve" {
		runServe(args[1:])
		os.Exit(0)
	}
	dir := writeArchive(t, mevscope.Options{Seed: 9, BlocksPerMonth: 20, Months: 2})
	cmd := exec.Command(os.Args[0], "-test.run=^TestServeDrainsOnSIGTERM$", "--",
		"serve", "-from", dir, "-addr", "127.0.0.1:0")
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer cmd.Process.Kill() // a no-op once the child has exited

	lines := bufio.NewReader(r)
	var base string
	for base == "" {
		line, err := lines.ReadString('\n')
		if err != nil {
			t.Fatalf("serve printed no address before %v", err)
		}
		if _, rest, ok := strings.Cut(line, "serving on "); ok {
			base, _, _ = strings.Cut(rest, "/v1/")
		}
	}
	go io.Copy(io.Discard, lines) // keep the child's stderr from filling up

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/v1/manifest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/v1/manifest → %d, want 200", base, resp.StatusCode)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("serve after SIGTERM: %v, want exit 0", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("serve did not exit within 10s of SIGTERM")
	}
}
