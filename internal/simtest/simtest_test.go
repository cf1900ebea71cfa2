package simtest

import (
	"strconv"
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
		if d, ok := firstDivergence(first.Transcript, r.Transcript); ok {
			t.Fatalf("run %d digest %s != run 0 digest %s; first divergence at line %d:\n  run 0 (%s): %s\n  run %d (%s): %s",
				run, r.Digest, first.Digest, d.line, instant(d.a), d.a, run, instant(d.b), d.b)
		}
	}
	if first.Transcript == "" {
		t.Fatal("empty transcript")
	}
}

// divergence is where two transcripts first differ: the 1-based line
// number and each transcript's line there, "" past its end.
type divergence struct {
	line int
	a, b string
}

// firstDivergence finds the first line at which transcripts a and b
// differ; ok is false when they are identical.
func firstDivergence(a, b string) (d divergence, ok bool) {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) || i < len(lb); i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y {
			return divergence{line: i + 1, a: x, b: y}, true
		}
	}
	return divergence{}, false
}

// instant is the virtual instant a transcript line carries, as an offset
// from the run's start: "+1234us" for an event line, "no instant" for an
// outcome line or a transcript that already ended.
func instant(line string) string {
	if f := strings.Fields(line); len(f) > 0 {
		if us, ok := strings.CutSuffix(f[0], "us"); ok {
			if _, err := strconv.Atoi(us); err == nil {
				return "+" + f[0]
			}
		}
	}
	return "no instant"
}

// TestFirstDivergence: the report names the first differing line, not
// the first differing byte's digest, and reads its virtual instant.
func TestFirstDivergence(t *testing.T) {
	a := "      100us ga  call-enqueued     c/a->ga/g seq=1 call\n" +
		"      200us ga  call-executed     c/a->ga/g seq=1 inc\n" +
		"      300us c   promise-resolved  c/a->ga/g seq=1 normal\n" +
		"outcome id=0 c->ga arg=1 v=2\n"
	b := strings.Replace(a, "      200us ga  call-executed", "      250us ga  call-executed", 1)
	d, ok := firstDivergence(a, b)
	if !ok || d.line != 2 || instant(d.a) != "+200us" || instant(d.b) != "+250us" {
		t.Fatalf("divergence %+v (%v): want line 2 at +200us against +250us", d, ok)
	}
	short := strings.TrimSuffix(a, "outcome id=0 c->ga arg=1 v=2\n")
	d, ok = firstDivergence(a, short)
	if !ok || d.line != 4 || d.b != "" || instant(d.a) != "no instant" || instant(d.b) != "no instant" {
		t.Fatalf("divergence %+v (%v): want line 4, an outcome line against the end", d, ok)
	}
	if d, ok := firstDivergence(a, a); ok {
		t.Fatalf("identical transcripts diverge at %+v", d)
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

// TestFaultsAreExercised runs seed 17. There s1 crashes after it has
// completed c0's first call, so the recovered s1 holds c0's next calls
// behind a call it will never see again, and c0's stream to s1 breaks
// when their retransmissions go unanswered. (A crash that loses only
// calls in flight breaks nothing: retransmission delivers them.)
func TestFaultsAreExercised(t *testing.T) {
	r, err := Run(Options{Seed: 17})
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
