package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/blob"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/serve"
)

// runServe starts the evaluation daemon: an HTTP server over the v2
// experiment core that validates posted specs, streams run progress as
// NDJSON, deduplicates concurrent identical submissions, and answers
// repeat queries from the content-addressed result cache.
func runServe(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("advrepro serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8799", "listen address")
	artifacts := fs.String("artifacts", "", "trained-model artifact directory (warm environment starts)")
	workers := fs.Int("workers", 0, "cap each runner's worker pool (0 = GOMAXPROCS)")
	maxRuns := fs.Int("maxruns", 0, "bound concurrent computations; extra new runs get 503 + Retry-After (0 = unbounded)")
	warm := fs.String("warm", "", "comma-separated presets to build before accepting traffic")
	cacheDir := fs.String("cachedir", "", "disk-backed result cache directory (persists across daemon restarts; empty = in-memory)")
	storeDir := fs.String("storedir", "", "object-store directory backing /store (lane checkpoint segments; empty = in-memory)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cacheDir != "" && *storeDir != "" {
		// A cache inside the store would serve any client's
		// PUT /store/<hash>.json as a result.
		rel, err := filepath.Rel(*storeDir, *cacheDir)
		if err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			return fmt.Errorf("serve: -cachedir %s lies inside -storedir %s", *cacheDir, *storeDir)
		}
	}
	logf := func(format string, a ...any) { log.Printf(format, a...) }
	cfg := serve.Config{
		ArtifactDir: *artifacts,
		Workers:     *workers,
		MaxRuns:     *maxRuns,
		Logf:        logf,
	}
	if *cacheDir != "" {
		dc, err := serve.NewDiskCache(*cacheDir, logf)
		if err != nil {
			return err
		}
		log.Printf("serve: disk cache at %s (%d entries)", *cacheDir, dc.Len())
		cfg.Cache = dc
	}
	if *storeDir != "" {
		cfg.Store = blob.NewDirStore(*storeDir)
		log.Printf("serve: object store at %s", *storeDir)
	}
	srv := serve.New(ctx, cfg)
	for _, preset := range splitNames(*warm) {
		log.Printf("serve: warming %s runner", preset)
		if err := srv.Warm(ctx, preset); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Fprintf(stdout, "advrepro serve: listening on http://%s\n", ln.Addr())
	hs := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Graceful stop: the serving core's context is already cancelled,
		// which aborts in-flight runs and ends their streams.
		fmt.Fprintln(stdout, "advrepro serve: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(shCtx)
	}
}

// The daemon's connection timeouts. A client must finish its request
// headers within daemonReadHeaderTimeout, so one that never does cannot
// hold a connection forever; a keep-alive connection with no request in
// flight closes after daemonIdleTimeout. Neither bounds a request body or
// a response stream: a run's NDJSON stream lasts as long as the run.
const (
	daemonReadHeaderTimeout = 10 * time.Second
	daemonIdleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the daemon's HTTP server for handler h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: daemonReadHeaderTimeout,
		IdleTimeout:       daemonIdleTimeout,
	}
}

// runRemoteSpec submits a spec to a running daemon and renders its
// NDJSON stream: progress lines (with -progress), the cache verdict, and
// the result text. The stream reconnects through transient drops (dial
// failures, mid-stream disconnects, 503 shedding) up to the -reconnects
// budget, surfacing each attempt; the daemon's single-flight dedup makes
// a reconnect rejoin the same run or land a free cache hit. The wire
// payload carries the same report a local run prints, so -out/-csv work
// identically; only -md needs the local grid.
func runRemoteSpec(ctx context.Context, remote string, spec exp.Spec, progress bool, reconnects int, csvPath, mdPath, outPath string, stdout io.Writer) error {
	if mdPath != "" {
		return fmt.Errorf("run: -md needs a local run (the wire payload carries text and CSV only)")
	}
	body, err := spec.JSON()
	if err != nil {
		return err
	}
	payload, cacheHit, err := serve.StreamSpec(ctx, remote, body, serve.StreamConfig{
		MaxReconnects: reconnects,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stdout, "run: "+format+"\n", a...)
		},
		OnEvent: func(ev serve.WireEvent) error {
			if progress {
				printWireProgress(stdout, ev)
			}
			return nil
		},
	})
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}

	verdict := "computed"
	if cacheHit {
		verdict = "cache hit (zero compute)"
	}
	fmt.Fprintf(stdout, "remote result %s: %s\n\n", payload.Key[:12], verdict)
	fmt.Fprintln(stdout, payload.Text)
	if csvPath != "" {
		if payload.CSV == "" {
			return fmt.Errorf("-csv: this run kind has no grid")
		}
		if err := os.WriteFile(csvPath, []byte(payload.CSV), 0o644); err != nil {
			return fmt.Errorf("write csv: %w", err)
		}
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, []byte(payload.Text), 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
	}
	return nil
}

// printWireProgress renders one streamed event in the local -progress
// line format, so remote and local runs read alike.
func printWireProgress(w io.Writer, ev serve.WireEvent) {
	switch ev.Event {
	case "run-start":
		fmt.Fprintf(w, "run: %d cells\n", ev.Total)
	case "cell-done":
		if ev.Cell == nil {
			return
		}
		// The metrics ride in the cell's checkpoint record; without one
		// the line shows zero metrics.
		var rec eval.SweepRecord
		if err := json.Unmarshal(ev.Record, &rec); err != nil {
			rec = eval.SweepRecord{}
		}
		status := "ok"
		if rec.Cell.Collision {
			status = "COLLISION"
		}
		fmt.Fprintf(w, "[%d/%d] cell %d  %s / %s / %s  min-gap %.2f m  %s\n",
			ev.Done, ev.Total, ev.Cell.Index, ev.Cell.Scenario, ev.Cell.Attack, ev.Cell.Defense, rec.Cell.MinGap, status)
	case "run-done":
		if ev.Err != "" {
			fmt.Fprintf(w, "run stopped: %s\n", ev.Err)
			return
		}
		fmt.Fprintf(w, "run complete: %d grid cells\n", ev.Total)
	case "log":
		fmt.Fprintf(w, "remote: %s\n", ev.Msg)
	}
}
