package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/sim"
)

const progressSpec = `{"kind":"matrix","preset":"quick","matrix":{"scenarios":["hard-brake"],
	"attacks":["None","CAP-Attack"],"defenses":["None"],"duration":1,"dt":0.1}}`

// progressRunner streams a two-cell grid without simulating: cell 0
// collides, cell 1 never closes the gap (+Inf TTC).
type progressRunner struct{ ids []eval.CellID }

func (r progressRunner) RunObserved(ctx context.Context, s exp.Spec, obs exp.Observer) (*exp.Result, error) {
	rep := eval.MatrixReport{Preset: "quick"}
	obs.Observe(exp.Event{Kind: exp.EventRunStart, Total: len(r.ids)})
	for _, id := range r.ids {
		cell := eval.MatrixCell{
			Scenario: id.Scenario, Attack: id.Attack, Defense: id.Defense, Seed: id.Seed,
			MinGap: 30, MinTTC: math.Inf(1), Steps: 10,
			Result: sim.Result{Times: []float64{0, 0.1}, MinGap: 30, MinTTC: math.Inf(1)},
		}
		if id.Index == 0 {
			cell.Collision, cell.MinGap, cell.MinTTC = true, -0.375, 0.25
		}
		rep.Cells = append(rep.Cells, cell)
		obs.Observe(exp.Event{Kind: exp.EventCellStart, Total: len(r.ids), Cell: id})
		obs.Observe(exp.Event{Kind: exp.EventCellDone, Total: len(r.ids), Done: len(rep.Cells), Cell: id, Result: &rep.Cells[len(rep.Cells)-1]})
	}
	obs.Observe(exp.Event{Kind: exp.EventRunDone, Total: len(r.ids)})
	return &exp.Result{Spec: s, Text: "fake grid", Matrix: &rep}, nil
}

// TestPrintWireProgress renders the cell lines of a daemon stream: the
// min-gap and collision verdict come from each cell-done's checkpoint
// record.
func TestPrintWireProgress(t *testing.T) {
	spec, err := exp.ParseSpec([]byte(progressSpec))
	if err != nil {
		t.Fatal(err)
	}
	ids, err := spec.CellIDs()
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(context.Background(), serve.Config{
		NewRunner: func(context.Context, string, func(string, ...any)) (serve.Runner, error) {
			return progressRunner{ids: ids}, nil
		},
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	var out bytes.Buffer
	_, _, err = serve.StreamSpec(context.Background(), hs.URL, []byte(progressSpec), serve.StreamConfig{
		OnEvent: func(ev serve.WireEvent) error {
			printWireProgress(&out, ev)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"run: 2 cells\n",
		"[1/2] cell 0  hard-brake / None / None  min-gap -0.38 m  COLLISION\n",
		"[2/2] cell 1  hard-brake / CAP-Attack / None  min-gap 30.00 m  ok\n",
		"run complete: 2 grid cells\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("progress output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestNewHTTPServerTimeouts pins the daemon's connection timeouts: a
// client that never finishes its headers, or an idle keep-alive
// connection, must not hold a connection forever. The server must still
// route requests to the handler it was given.
func TestNewHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	if hs.ReadHeaderTimeout != daemonReadHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, daemonReadHeaderTimeout)
	}
	if hs.IdleTimeout != daemonIdleTimeout || hs.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v", hs.IdleTimeout, daemonIdleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Fatalf("read/write timeouts %v/%v would cut long run streams", hs.ReadTimeout, hs.WriteTimeout)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "ok" {
		t.Fatalf("served %q, %v; want \"ok\"", body, err)
	}
}

// TestServeRefusesCacheInsideStore: a -cachedir in or under -storedir
// would serve any client's PUT /store/<hash>.json as a result, so the
// daemon refuses to start.
func TestServeRefusesCacheInsideStore(t *testing.T) {
	store := t.TempDir()
	for _, cache := range []string{store, filepath.Join(store, "results")} {
		err := runServe(context.Background(), []string{"-addr", "127.0.0.1:0", "-storedir", store, "-cachedir", cache}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "lies inside -storedir") {
			t.Fatalf("-cachedir %s: err = %v, want a refusal", cache, err)
		}
	}
}
