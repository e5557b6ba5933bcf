// Smoke test: the loadtest mode drives an in-process server end to end —
// the same path the CI bench-smoke step exercises via `go run`.
package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/systolic/serve"
)

func TestLoadtestInProcess(t *testing.T) {
	if err := runLoadtest(serve.Config{}, "", 200*time.Millisecond, 4); err != nil {
		t.Fatalf("loadtest against the in-process server failed: %v", err)
	}
}

// TestSlowHeaderClientDisconnected: a client that sends half a request
// header is disconnected once the header timeout passes, and the same
// server then answers a well-formed request.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := newHTTPServer("", srv.Handler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("server timeouts = %v/%v, want %v/%v", hs.ReadHeaderTimeout, hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	const timeout = 200 * time.Millisecond
	hs.ReadHeaderTimeout = timeout // the production value would make the test slow
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: gossipd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_ = conn.SetReadDeadline(start.Add(10 * timeout))
	n, err := io.Copy(io.Discard, conn)
	if err != nil {
		t.Fatalf("half-header client not disconnected after %v (read %d bytes): %v", time.Since(start), n, err)
	}
	if took := time.Since(start); took > 5*timeout {
		t.Fatalf("half-header client disconnected after %v, timeout %v", took, timeout)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz after the slow client: %s", resp.Status)
	}
}
