// Command sgserved serves sharded signature-tree collections over
// HTTP/JSON: kNN, range and containment queries with scatter-gather across
// shard trees, WAL-shipped read replicas, and per-shard metrics on /stats.
//
// Usage:
//
//	sgserved -addr :7701 -data /var/lib/sgtree           # primary
//	sgserved -addr :7702 -data /var/lib/sgtree-replica \
//	         -replica-of http://localhost:7701           # read replica
//	sgserved -call http://localhost:7701/healthz         # probe (GET)
//	sgserved -call .../collections -d '{"name":"c","universe":100}'
//
// The -call mode is a tiny JSON client for scripts without curl: it GETs
// the URL (or POSTs -d as the body), prints the response, and exits 0 on
// any 2xx status. The server shuts down cleanly on SIGINT/SIGTERM, giving
// every durable shard a final commit point.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sgtree/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sgserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":7701", "listen address")
		dataDir   = fs.String("data", "", "data directory for durable collections (and replica state)")
		replicaOf = fs.String("replica-of", "", "primary base URL; serve as a read replica")
		poll      = fs.Duration("poll", 200*time.Millisecond, "replication poll interval (replica mode)")
		call      = fs.String("call", "", "probe mode: request this URL and exit")
		body      = fs.String("d", "", "probe mode: JSON body (switches the request to POST)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *call != "" {
		return probe(stdout, stderr, *call, *body)
	}

	srv, err := server.New(server.Config{
		DataDir:      *dataDir,
		Primary:      *replicaOf,
		PollInterval: *poll,
	})
	if err != nil {
		fmt.Fprintln(stderr, "sgserved:", err)
		return 1
	}

	hs := newHTTPServer(*addr, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	role := "primary"
	if *replicaOf != "" {
		role = "replica of " + *replicaOf
	}
	fmt.Fprintf(stderr, "sgserved: listening on %s (%s)\n", *addr, role)

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	select {
	case <-ctx.Done():
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "sgserved:", err)
			srv.Close()
			return 1
		}
	}

	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(stderr, "sgserved: shutdown:", err)
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(stderr, "sgserved: close:", err)
		return 1
	}
	fmt.Fprintln(stderr, "sgserved: stopped")
	return 0
}

// Connection timeouts of the served HTTP endpoint.
const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers, so a slow or stalled client cannot hold a
	// connection (and its goroutine) open indefinitely.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes keep-alive connections that carry no request
	// for this long.
	idleTimeout = 2 * time.Minute
)

// newHTTPServer builds the listener's http.Server with header-read and
// idle timeouts. It sets no WriteTimeout (nor ReadTimeout, which would
// cap body upload time): a long scatter-gather query must not be cut off
// mid-response; a query stops when its client goes away, through the
// request context the handlers pass down.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// probe issues one request and mirrors the response to stdout.
func probe(stdout, stderr io.Writer, url, body string) int {
	var (
		resp *http.Response
		err  error
	)
	if body != "" {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	} else {
		resp, err = http.Get(url)
	}
	if err != nil {
		fmt.Fprintln(stderr, "sgserved:", err)
		return 1
	}
	defer resp.Body.Close()
	io.Copy(stdout, resp.Body)
	if resp.StatusCode >= 300 {
		fmt.Fprintf(stderr, "sgserved: HTTP %d\n", resp.StatusCode)
		return 1
	}
	return 0
}
