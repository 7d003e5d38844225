// Package serve implements `advrepro serve`: a long-lived HTTP daemon
// over the v2 experiment core. Clients POST a serializable exp.Spec to
// /run; the server validates it against the registries, executes it
// under a per-request context, and streams Observer events back as
// newline-delimited JSON, terminated by a cache marker and the result
// payload. Results are served from a content-addressed cache keyed by
// the canonical spec hash (exp.SpecHash) — equal specs denote
// bit-identical runs, so a cache hit returns exactly the bytes a fresh
// compute would produce, with zero compute. Concurrent submissions of
// the same spec are deduplicated single-flight: one computation runs,
// every subscriber streams its events, and the run's context is
// cancelled only when the last subscriber disconnects (an abandoned run
// is never cached, so a disconnect cannot poison the cache).
package serve

import (
	"encoding/json"
	"fmt"

	"repro/internal/eval"
	"repro/internal/exp"
)

// WireEvent is one JSONL line of the /run stream. Event discriminates:
// the Observer kinds ("run-start", "cell-start", "cell-done", "log",
// "run-done") stream while the run executes; "cache" marks the terminal
// section with the result's content address and whether it was served
// from the cache; "error" reports a failed run. The line following
// "cache" is the ResultPayload.
type WireEvent struct {
	Event string `json:"event"`

	Total int          `json:"total,omitempty"`
	Done  int          `json:"done,omitempty"`
	Cell  *eval.CellID `json:"cell,omitempty"`
	Msg   string       `json:"msg,omitempty"`
	Err   string       `json:"err,omitempty"`

	// Record, on "cell-done" events, is the cell's full eval.SweepRecord
	// checkpoint line — its min-gap, TTC, collision and steps included. A
	// client appending it to a local JSONL lane file reconstructs exactly
	// the checkpoint the worker would have written, which is what lets
	// the fleet dispatcher resume remote shards from local state.
	Record json.RawMessage `json:"record,omitempty"`

	Key string `json:"key,omitempty"` // "cache": canonical spec hash
	Hit bool   `json:"hit,omitempty"` // "cache": served from cache
}

// ResultPayload is the terminal line of a successful /run stream and the
// unit the result cache stores: for one canonical spec hash this line is
// byte-identical on every response, computed or cached.
type ResultPayload struct {
	Event  string `json:"event"` // always "result"
	Key    string `json:"key"`   // canonical spec hash
	Kind   string `json:"kind"`
	Preset string `json:"preset"`
	Text   string `json:"text"`          // the formatted report
	CSV    string `json:"csv,omitempty"` // machine-readable grid (matrix/sweep kinds)

	// Records holds every grid cell as a checkpoint line (grid kinds
	// only). A cache hit streams no cell-done events, and a reconnecting
	// client may have missed some — the terminal payload always carries
	// the complete set, so a lane file can be backfilled from it alone.
	Records []json.RawMessage `json:"records,omitempty"`
}

// specGrid derives the record codec of a grid-kind spec; nil for kinds
// without a grid.
func specGrid(spec exp.Spec) (*eval.Grid, error) {
	if spec.Kind != exp.KindMatrix && spec.Kind != exp.KindSweep {
		return nil, nil
	}
	g, err := spec.Grid()
	if err != nil {
		return nil, err
	}
	return &g, nil
}

// encodeEventLine converts an Observer event to its wire line. g, when
// non-nil, attaches the full checkpoint record to cell-done events.
func encodeEventLine(ev exp.Event, g *eval.Grid) []byte {
	we := WireEvent{Event: ev.Kind.String(), Total: ev.Total, Done: ev.Done, Msg: ev.Msg}
	if ev.Err != nil {
		we.Err = ev.Err.Error()
	}
	switch ev.Kind {
	case eval.EventCellStart, eval.EventCellDone:
		we.Cell = &ev.Cell
	}
	if ev.Kind == eval.EventCellDone && ev.Result != nil && g != nil {
		we.Record = mustMarshal(g.Record(ev.Cell.Index, *ev.Result))
	}
	return mustMarshal(we)
}

// cacheLine builds the terminal cache-marker line.
func cacheLine(key string, hit bool) []byte {
	return mustMarshal(WireEvent{Event: "cache", Key: key, Hit: hit})
}

// errorLine builds the terminal line of a failed run.
func errorLine(err error) []byte {
	return mustMarshal(WireEvent{Event: "error", Err: err.Error()})
}

// EncodeResult serializes a run result into the cacheable payload line.
// Encoding is deterministic (fixed field order, minimal floats), so
// bit-identical results — the Spec guarantee — yield byte-identical
// payloads.
func EncodeResult(key string, res *exp.Result) ([]byte, error) {
	p, err := exp.PresetByName(res.Spec.Preset)
	if err != nil {
		return nil, err
	}
	payload := ResultPayload{
		Event: "result", Key: key,
		Kind: res.Spec.Kind, Preset: p.Name,
		Text: res.Text,
	}
	if res.Matrix != nil {
		payload.CSV = res.Matrix.CSV()
		g, err := specGrid(res.Spec)
		if err != nil {
			return nil, err
		}
		switch {
		case g == nil:
		case res.Sweep != nil:
			// A sweep shard's cells carry their GLOBAL grid indices in
			// Indices — a record stamped with the slice position would
			// fail grid validation on any shard but 0/1.
			payload.Records = make([]json.RawMessage, len(res.Sweep.Cells))
			for i, cell := range res.Sweep.Cells {
				payload.Records[i] = mustMarshal(g.Record(res.Sweep.Indices[i], cell))
			}
		default:
			payload.Records = make([]json.RawMessage, len(res.Matrix.Cells))
			for i, cell := range res.Matrix.Cells {
				payload.Records[i] = mustMarshal(g.Record(i, cell))
			}
		}
	}
	buf, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("serve: encode result: %w", err)
	}
	return buf, nil
}

// mustMarshal encodes a wire value whose types cannot fail to marshal
// (every float of a checkpoint record goes through eval.JFloat).
func mustMarshal(v any) []byte {
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return buf
}
