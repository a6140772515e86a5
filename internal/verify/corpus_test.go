package verify

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCorpusReproducers replays every shrunk-reproducer file under
// testdata/. Each file is a scenario that once violated an invariant
// (or exercised a fixed bug's trigger path); replaying them with the
// full catalogue armed keeps the fixes regression-locked.
//
// The corpus:
//
//	acted-undeliverable-seed45.scn — a delay fault over reliable
//	    hierarchy traffic made one incident resolve twice (counted both
//	    acted and undeliverable); fixed by per-incident terminal
//	    resolution in core.Runtime.
//	warm-failover-seed55.scn — delay + post crash + warm failover: the
//	    requeued ARQ window re-delivers orders that already executed.
//	cold-failover-seed30.scn — repeated post loss + composite kills +
//	    cold failover under tracking.
func TestCorpusReproducers(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.scn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files under testdata/")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			// Corpus files must declare the schema version this build
			// writes; a format change without re-shrinking the corpus
			// fails here, not with a confusing misparse downstream.
			wantHeader := fmt.Sprintf("scenario v%d", SchemaVersion)
			if header, _, _ := strings.Cut(string(src), "\n"); header != wantHeader {
				t.Fatalf("corpus header %q, want %q; re-shrink this reproducer for the new format", header, wantHeader)
			}
			s, err := ParseScenario(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			// The file form must be canonical (String is Parse's inverse).
			if s.String() != string(src) {
				t.Fatalf("corpus file is not canonical:\n%s\nvs\n%s", string(src), s.String())
			}
			out := Run(s)
			if out.Skipped {
				t.Fatal("corpus scenario unsynthesizable")
			}
			if len(out.Violations) > 0 {
				t.Fatalf("corpus scenario violates invariants again: %s", out.Summary)
			}
			t.Logf("%s", out.Summary)
		})
	}
}

// TestScenarioSchemaVersion pins the parser's version gate: files from
// a future (or garbled) format are rejected with a version error, not
// misparsed.
func TestScenarioSchemaVersion(t *testing.T) {
	valid := Generate(1).String()
	if _, err := ParseScenario(valid); err != nil {
		t.Fatalf("current-version scenario rejected: %v", err)
	}
	head := fmt.Sprintf("scenario v%d", SchemaVersion)
	cases := []struct {
		name, src, wantErr string
	}{
		{"future version",
			strings.Replace(valid, head, fmt.Sprintf("scenario v%d", SchemaVersion+1), 1),
			fmt.Sprintf("schema v%d not supported", SchemaVersion+1)},
		{"no version number", strings.Replace(valid, head, "scenario vX", 1), "not a scenario file"},
		{"missing header", strings.Replace(valid, head+"\n", "", 1), "not a scenario file"},
		{"empty", "", "not a scenario file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScenario(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestScenarioValidateRejectsNonsense feeds the parser one nonsense
// value per case and requires an error naming the offending field.
func TestScenarioValidateRejectsNonsense(t *testing.T) {
	const base = "scenario v1\nseed=1 assets=100 size=800 terrain=open command=intent " +
		"reliable=false degrade=false checkpoint=0s rate=10 horizon=1m0s track=false\n"
	if _, err := ParseScenario(base); err != nil {
		t.Fatalf("valid base rejected: %v", err)
	}
	cases := []struct{ field, from, to string }{
		{"assets", "assets=100", "assets=-5"},
		{"size", "size=800", "size=NaN"},
		{"size", "size=800", "size=0"},
		{"size", "size=800", "size=+Inf"},
		{"rate", "rate=10", "rate=-3"},
		{"rate", "rate=10", "rate=Inf"},
		{"horizon", "horizon=1m0s", "horizon=-1m"},
		{"checkpoint", "checkpoint=0s", "checkpoint=-5s"},
	}
	for _, tc := range cases {
		t.Run(tc.to, func(t *testing.T) {
			_, err := ParseScenario(strings.Replace(base, tc.from, tc.to, 1))
			if err == nil || !strings.Contains(err.Error(), tc.field+"=") {
				t.Fatalf("err = %v, want an error naming %s", err, tc.field)
			}
		})
	}
}
