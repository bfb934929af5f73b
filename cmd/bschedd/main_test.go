package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The daemon's lifecycle — serve, answer, drain on SIGTERM, exit 0 — is
// asserted end-to-end: the test binary re-execs itself with
// BSCHEDD_BE_MAIN=1, in which case TestMain runs realMain instead of the
// test suite.

func TestMain(m *testing.M) {
	if os.Getenv("BSCHEDD_BE_MAIN") == "1" {
		os.Exit(realMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-faultspec", "garbage spec without equals"},
		{"-cache", "8"},
		{"-attempts", "3"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "BSCHEDD_BE_MAIN=1")
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Errorf("%v: err %v, want exit code 1", args, err)
		}
	}
}

// startDaemon boots one bschedd subprocess with args and scrapes its
// resolved listen address off the -v stderr line containing marker.
func startDaemon(t *testing.T, marker string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BSCHEDD_BE_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	sc := bufio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, marker); i >= 0 {
			addr = strings.Fields(line[i+len(marker):])[0]
			break
		}
	}
	if addr == "" {
		t.Fatalf("daemon %v never reported its address: %v", args, sc.Err())
	}
	go io.Copy(io.Discard, stderr)
	return cmd, addr
}

func postGrid(t *testing.T, base string, req any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/grid", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("grid request: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body
}

// TestCoordinatorFleetSurvivesWorkerKill is the process-level chaos
// drill: a coordinator over two real worker daemons serves a grid, one
// worker is SIGKILLed, and the next grid still completes with zero
// failed cells on the survivor. SIGTERM then drains the coordinator to
// a clean exit 0 with an intact, fully attributed cell journal.
func TestCoordinatorFleetSurvivesWorkerKill(t *testing.T) {
	w1, addr1 := startDaemon(t, "serving on ", "-addr", "127.0.0.1:0", "-v")
	w2, addr2 := startDaemon(t, "serving on ", "-addr", "127.0.0.1:0", "-v")
	journal := filepath.Join(t.TempDir(), "cells.jsonl")
	coord, caddr := startDaemon(t, "coordinating on ",
		"-coordinator", "-workers", addr1+","+addr2,
		"-addr", "127.0.0.1:0", "-v", "-journal", journal,
		"-probe-interval", "50ms", "-drain-timeout", "10s")
	base := "http://" + caddr

	type gridDoc struct {
		Cells []struct {
			Bench   string          `json:"bench"`
			Config  string          `json:"config"`
			Metrics json.RawMessage `json:"metrics"`
			Error   string          `json:"error"`
			Kind    string          `json:"kind"`
		} `json:"cells"`
	}
	req := map[string]any{
		"benches": []string{"tomcatv", "TRFD", "ora", "swm256"},
		"configs": []string{"BS", "TS"},
	}
	checkGrid := func(label string, wantCells int) {
		status, body := postGrid(t, base, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d body %s", label, status, body)
		}
		var doc gridDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("%s: grid body: %v", label, err)
		}
		if len(doc.Cells) != wantCells {
			t.Fatalf("%s: %d cells, want %d", label, len(doc.Cells), wantCells)
		}
		for _, cell := range doc.Cells {
			if cell.Error != "" || len(cell.Metrics) == 0 {
				t.Errorf("%s: cell %s/%s failed: kind=%q err=%q",
					label, cell.Bench, cell.Config, cell.Kind, cell.Error)
			}
		}
	}

	checkGrid("grid before kill", 8)

	// SIGKILL one worker — no drain, no goodbye — and immediately ask
	// for the same grid. The survivor must complete every cell.
	if err := w1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	w1.Wait()
	checkGrid("grid after SIGKILL", 8)

	// Drain the coordinator: exit 0 and a well-formed journal.
	if err := coord.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- coord.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("coordinator exited dirty on SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		coord.Process.Kill()
		t.Fatal("coordinator did not exit within 15s of SIGTERM")
	}

	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
	if len(lines) != 16 {
		t.Fatalf("journal holds %d cell records, want 16:\n%s", len(lines), b)
	}
	for i, line := range lines {
		var rec struct {
			Bench  string `json:"bench"`
			Status string `json:"status"`
			Worker string `json:"worker"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %d %q: %v", i, line, err)
		}
		if rec.Status != "ok" {
			t.Errorf("journal line %d: status %q, want ok", i, rec.Status)
		}
		// After the SIGKILL, failed-over cells may be attributed to the
		// shared cache tier instead of a live worker address.
		attributed := rec.Worker == addr1 || rec.Worker == addr2 || rec.Worker == "fleet-cache"
		if !attributed {
			t.Errorf("journal line %d: worker %q is not in the fleet", i, rec.Worker)
		}
	}

	w2.Process.Signal(syscall.SIGTERM)
	w2.Wait()
}

// TestServeDrainExitsClean boots the daemon on an ephemeral port, serves
// a compile request, then SIGTERMs it and asserts a clean drain: exit
// code 0 and a journal holding every admitted request.
func TestServeDrainExitsClean(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "requests.jsonl")
	cmd := exec.Command(os.Args[0],
		"-addr", "127.0.0.1:0", "-v", "-journal", journal, "-drain-timeout", "5s")
	cmd.Env = append(os.Environ(), "BSCHEDD_BE_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first -v line reports the resolved listen address.
	sc := bufio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "serving on "); i >= 0 {
			addr = strings.Fields(line[i+len("serving on "):])[0]
			break
		}
	}
	if addr == "" {
		t.Fatalf("daemon never reported its address: %v", sc.Err())
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained

	base := "http://" + addr
	resp, err := http.Post(base+"/v1/compile", "application/json",
		bytes.NewReader([]byte(`{"bench":"tomcatv","config":"BS+LU4"}`)))
	if err != nil {
		t.Fatalf("compile request: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d body %s", resp.StatusCode, body)
	}
	hresp, err := http.Get(base + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, hresp)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("daemon exited dirty on SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon did not exit within 15s of SIGTERM")
	}

	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
	if len(lines) != 1 {
		t.Fatalf("journal holds %d lines, want 1:\n%s", len(lines), b)
	}
	var rec struct {
		Endpoint string `json:"endpoint"`
		Status   int    `json:"status"`
	}
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("torn journal line %q: %v", lines[0], err)
	}
	if rec.Endpoint != "compile" || rec.Status != http.StatusOK {
		t.Errorf("journal record %+v, want compile/200", rec)
	}
}
