package dispatch

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/serve"
)

// The -inject, -injectstore and -transport strings arrive from the
// command line. Whatever they hold, the parsers must not panic, and what
// they accept must be a valid plan: known faults, non-negative workers and
// counts, no directive twice, and a canonical rendering that parses back
// to the same value.

func FuzzParseInjections(f *testing.F) {
	for _, s := range []string{
		"", "kill:0", "kill:0@2,dial:1@1,dup:0,torn:2@3", "hang:3@0",
		" kill:1 , dup:1 ", "kill:0@1,kill:1@1", "kill:0@1,kill:0@2",
		"kill:0,", "kill:+1", "kill:-0", "explode:0", "kill:007@010",
		"kill:99999999999999999999", "dup:0@", "torn::1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		injs, err := ParseInjections(s)
		if err != nil {
			return
		}
		seen := make(map[string]bool)
		parts := make([]string, len(injs))
		for i, inj := range injs {
			switch inj.Fault {
			case "kill", "hang", "dial", "dup", "torn":
			default:
				t.Fatalf("ParseInjections(%q) accepted fault %q", s, inj.Fault)
			}
			if inj.Worker < 0 || inj.N < 0 {
				t.Fatalf("ParseInjections(%q) accepted %+v", s, inj)
			}
			key := fmt.Sprintf("%s:%d", inj.Fault, inj.Worker)
			if seen[key] {
				t.Fatalf("ParseInjections(%q) accepted %s twice", s, key)
			}
			seen[key] = true
			parts[i] = fmt.Sprintf("%s:%d@%d", inj.Fault, inj.Worker, inj.N)
		}
		again, err := ParseInjections(strings.Join(parts, ","))
		if err != nil || !reflect.DeepEqual(again, injs) {
			t.Fatalf("ParseInjections(%q) = %+v; its rendering parses to %+v, %v", s, injs, again, err)
		}
	})
}

func FuzzParseStoreInjections(f *testing.F) {
	for _, s := range []string{
		"", "dup", "outage:3,torn:1,dup", " torn:0 ", "dup:2",
		"dup,dup", "outage:1,outage:2", "outage:", "outage:+3", "flood:1",
		"torn:99999999999999999999", "outage:1,,dup",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		injs, err := ParseStoreInjections(s)
		if err != nil {
			return
		}
		seen := make(map[string]bool)
		parts := make([]string, len(injs))
		for i, inj := range injs {
			switch inj.Fault {
			case "outage", "torn", "dup":
			default:
				t.Fatalf("ParseStoreInjections(%q) accepted fault %q", s, inj.Fault)
			}
			if inj.N < 0 {
				t.Fatalf("ParseStoreInjections(%q) accepted %+v", s, inj)
			}
			if seen[inj.Fault] {
				t.Fatalf("ParseStoreInjections(%q) accepted %s twice", s, inj.Fault)
			}
			seen[inj.Fault] = true
			parts[i] = fmt.Sprintf("%s:%d", inj.Fault, inj.N)
		}
		again, err := ParseStoreInjections(strings.Join(parts, ","))
		if err != nil || !reflect.DeepEqual(again, injs) {
			t.Fatalf("ParseStoreInjections(%q) = %+v; its rendering parses to %+v, %v", s, injs, again, err)
		}
	})
}

func FuzzParseCheckpointTransport(f *testing.F) {
	for _, s := range []string{
		"", "fs", "store:/tmp/ckpt", "store:rel/dir", "store:http://127.0.0.1:8799",
		"store:https://h", "store:", "rsync:/x", "mirror:/x", "fs ", "store:store:x",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		st, err := ParseCheckpointTransport(s)
		if err != nil {
			return
		}
		var rendered string
		switch {
		case st == nil:
			if s != "" && s != "fs" {
				t.Fatalf("ParseCheckpointTransport(%q) accepted as fs", s)
			}
			rendered = "fs"
		default:
			switch store := st.Store.(type) {
			case *serve.HTTPStore:
				rendered = "store:" + store.Base
			case *blob.DirStore:
				rendered = "store:" + reflect.ValueOf(store).Elem().FieldByName("root").String()
			default:
				t.Fatalf("ParseCheckpointTransport(%q) returned store %T", s, st.Store)
			}
			if rendered != s {
				t.Fatalf("ParseCheckpointTransport(%q) renders as %q", s, rendered)
			}
		}
		again, err := ParseCheckpointTransport(rendered)
		if err != nil || !reflect.DeepEqual(again, st) {
			t.Fatalf("ParseCheckpointTransport(%q) = %+v; its rendering parses to %+v, %v", s, st, again, err)
		}
	})
}
