package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/testutil"
)

func TestRunRejectsBadConfiguration(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-shards", "many"},
		{"-topology", "nosuch"},
		{"-policy", "nosuch"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) booted", args)
		}
	}
}

// TestUsageNamesEveryPlanner: the -policy help text lists every name
// the planner registry accepts.
func TestUsageNamesEveryPlanner(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	for _, spec := range core.Planners() {
		if !strings.Contains(out.String(), spec.Name) {
			t.Errorf("-h output does not name planner %q:\n%s", spec.Name, out.String())
		}
	}
}

func TestRunReportsListenFailure(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	err = run([]string{"-addr", taken.Addr().String(), "-topology", "geant", "-policy", "SP"}, io.Discard)
	if err == nil {
		t.Fatal("bound an address already in use")
	}
}

// daemonRun is one run() on a goroutine with its progress lines piped
// back to the test.
type daemonRun struct {
	t     *testing.T
	ctx   context.Context
	lines *bufio.Scanner
	done  chan error
}

func startDaemon(t *testing.T, args ...string) *daemonRun {
	t.Helper()
	pr, pw := io.Pipe()
	d := &daemonRun{t: t, ctx: testutil.Context(t), lines: bufio.NewScanner(pr), done: make(chan error, 1)}
	go func() {
		err := run(args, pw)
		pw.Close()
		d.done <- err
	}()
	// A wedged daemon never closes the pipe; cut the reader loose when
	// the watchdog fires so the test fails instead of hanging.
	go func() {
		<-d.ctx.Done()
		pr.CloseWithError(d.ctx.Err())
	}()
	return d
}

// await reads progress lines up to the first one matching re and
// returns its submatches.
func (d *daemonRun) await(re *regexp.Regexp) []string {
	d.t.Helper()
	for d.lines.Scan() {
		if m := re.FindStringSubmatch(d.lines.Text()); m != nil {
			return m
		}
	}
	d.t.Fatalf("daemon output ended before %q (scan error: %v)", re, d.lines.Err())
	return nil
}

func (d *daemonRun) do(method, url, body string) (int, string) {
	d.t.Helper()
	req, err := http.NewRequestWithContext(d.ctx, method, url, strings.NewReader(body))
	if err != nil {
		d.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// serveAndDrain waits for the listener, runs serving against the bound
// base URL, then SIGTERMs the process and requires a clean drain.
func (d *daemonRun) serveAndDrain(serving func(base string)) {
	d.t.Helper()
	base := "http://" + d.await(regexp.MustCompile(`listening on http://(\S+)`))[1]
	// The listener binds before run installs its signal handler and
	// starts serving; an answered request proves both have happened, so
	// the SIGTERM below reaches the handler and not the test binary.
	if code, body := d.do(http.MethodGet, base+"/healthz", ""); code != http.StatusOK {
		d.t.Fatalf("healthz: %d %s", code, body)
	}
	serving(base)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		d.t.Fatal(err)
	}
	d.await(regexp.MustCompile(`drained, state snapshotted, logs closed`))
	if err := <-d.done; err != nil {
		d.t.Fatalf("run after SIGTERM: %v", err)
	}
}

// TestRunServesRecoversAndDrains boots the daemon on an ephemeral port
// with a WAL, admits a session over HTTP, drains it with SIGTERM, and
// boots it again on the same WAL: the session must have survived.
func TestRunServesRecoversAndDrains(t *testing.T) {
	args := []string{
		"-addr", "127.0.0.1:0", "-wal", t.TempDir(), "-no-sync",
		"-topology", "geant", "-policy", "SP", "-shards", "2",
	}
	const session = `{"tenant":"gold","request":{"id":1,"source":3,"dests":[7,12,19],"bw":40,"chain":["NAT","Firewall"]}}`

	first := startDaemon(t, args...)
	first.serveAndDrain(func(base string) {
		if code, body := first.do(http.MethodPost, base+"/v1/submit", session); code != http.StatusOK {
			t.Fatalf("submit: %d %s", code, body)
		}
	})

	second := startDaemon(t, args...)
	adopted := 0
	for shard := 0; shard < 2; shard++ {
		if second.await(regexp.MustCompile(`recovered to lsn \d+ \(\d+ records, (\d+) sessions adopted`))[1] == "1" {
			adopted++
		}
	}
	if adopted != 1 {
		t.Fatalf("%d shards adopted the session, want exactly 1", adopted)
	}
	second.serveAndDrain(func(base string) {
		if code, body := second.do(http.MethodPost, base+"/v1/release", `{"id":1}`); code != http.StatusOK {
			t.Fatalf("release of the recovered session: %d %s", code, body)
		}
	})
}
