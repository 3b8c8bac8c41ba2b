package main

import (
	"net/http"
	"testing"
)

// TestNewHTTPServerTimeouts pins the listener's connection bounds: header
// reads and idle keep-alives time out, while writes (long scatter-gather
// responses) and body reads stay unbounded.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	hs := newHTTPServer(":0", h)
	if hs.Addr != ":0" || hs.Handler != h {
		t.Fatalf("server not built from its arguments: addr %q", hs.Addr)
	}
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, ReadTimeout = %v, want both unset", hs.WriteTimeout, hs.ReadTimeout)
	}
}
