package simtest

import (
	"strings"
	"testing"
)

func TestSameSeedIsByteIdentical(t *testing.T) {
	var first *Result
	for run := 0; run < 3; run++ {
		r, err := Run(Options{Seed: 1})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if first == nil {
			first = r
			continue
		}
		if r.Digest != first.Digest {
			t.Fatalf("run %d digest %s != run 0 digest %s\n--- run 0 ---\n%s\n--- run %d ---\n%s",
				run, r.Digest, first.Digest, first.Transcript, run, r.Transcript)
		}
		if r.Transcript != first.Transcript {
			t.Fatalf("digests equal but transcripts differ (run %d)", run)
		}
	}
	if first.Transcript == "" {
		t.Fatal("empty transcript")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, err := Run(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatalf("seeds 1 and 2 produced the same digest %s", a.Digest)
	}
}

func TestFaultsAreExercised(t *testing.T) {
	r, err := Run(Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	script := strings.Join(r.Script, "\n")
	for _, want := range []string{"crash ", "recover ", "partition ", "heal ", "loss-window "} {
		if !strings.Contains(script, want) {
			t.Fatalf("script missing %q:\n%s", want, script)
		}
	}
	// The crash must be visible in the protocol's behavior, not only in
	// the script: at least one stream broke and every call still resolved
	// (the outcome lines exist for all of them).
	if !strings.Contains(r.Transcript, "stream-broken") {
		t.Fatalf("no stream-broken event in transcript:\n%s", r.Transcript)
	}
	if got := strings.Count(r.Transcript, "outcome id="); got != 2*8 {
		t.Fatalf("%d outcome lines, want 16", got)
	}
}
