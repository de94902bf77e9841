package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHalfSentHeaderIsDropped: a client that opens a connection, sends
// part of its request headers and stalls is disconnected by the server
// instead of pinning a connection and a goroutine for ever.
func TestHalfSentHeaderIsDropped(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout ||
		readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	// Same server, same code path; only the wait is shortened for the test.
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}
	// The blank line that ends the headers never comes. The server must
	// hang up; the deadline only bounds how long the test waits to see it.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept the stalled connection open: %v", err)
	}
}
