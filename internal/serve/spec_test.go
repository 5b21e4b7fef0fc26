package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func mustCanon(t *testing.T, sp Spec) Spec {
	t.Helper()
	c, err := sp.Canonicalize()
	if err != nil {
		t.Fatalf("Canonicalize(%+v): %v", sp, err)
	}
	return c
}

func TestCanonicalizeDefaults(t *testing.T) {
	c := mustCanon(t, Spec{})
	want := Spec{Graph: "grid", N: 64, Algo: "broadcast", Seed: 1, Reps: 1}
	if c != want {
		t.Fatalf("defaults: got %+v, want %+v", c, want)
	}
}

// equivalentSpellings pairs two spellings of the same scenario.
var equivalentSpellings = []struct {
	name string
	a, b Spec
}{
	{"defaults explicit",
		Spec{},
		Spec{Graph: "grid", N: 64, Algo: "broadcast", Seed: 1, Reps: 1}},
	{"mis ignores dynamic knobs",
		Spec{Graph: "grid", N: 49, Algo: "mis", Seed: 3},
		Spec{Graph: "grid", N: 49, Algo: "mis", Seed: 3, Epochs: 9, EpochLen: 16, Rate: 0.4}},
	{"election ignores source",
		Spec{Graph: "grid", N: 49, Algo: "election", Seed: 3},
		Spec{Graph: "grid", N: 49, Algo: "election", Seed: 3, Source: 7}},
	{"static flood ignores epochs and rate",
		Spec{Graph: "grid", N: 25, Algo: "flood", Seed: 2},
		Spec{Graph: "grid", N: 25, Algo: "flood", Seed: 2, Epochs: 7, Rate: 0.3}},
	{"dynamic flood default rate explicit",
		Spec{Graph: "churn:grid", N: 25, Algo: "flood", Seed: 2},
		Spec{Graph: "churn:grid", N: 25, Algo: "flood", Seed: 2, Epochs: 12, EpochLen: 32, Rate: 0.15}},
}

// Two spellings of the same scenario must share one hash: fields the
// scenario cannot observe are zeroed by canonicalization.
func TestCanonicalizeEquivalentSpellings(t *testing.T) {
	for _, tc := range equivalentSpellings {
		t.Run(tc.name, func(t *testing.T) {
			ca, cb := mustCanon(t, tc.a), mustCanon(t, tc.b)
			if ca != cb {
				t.Fatalf("canonical forms differ:\n  %+v\n  %+v", ca, cb)
			}
			if ca.Hash() != cb.Hash() {
				t.Fatalf("hashes differ for equivalent specs")
			}
		})
	}
}

func TestHashDistinguishesScenarios(t *testing.T) {
	base := Spec{Graph: "grid", N: 49, Algo: "mis", Seed: 1}
	variants := []Spec{
		{Graph: "path", N: 49, Algo: "mis", Seed: 1},
		{Graph: "grid", N: 50, Algo: "mis", Seed: 1},
		{Graph: "grid", N: 49, Algo: "election", Seed: 1},
		{Graph: "grid", N: 49, Algo: "mis", Seed: 2},
		{Graph: "grid", N: 49, Algo: "mis", Seed: 1, Reps: 3},
	}
	h0 := mustCanon(t, base).Hash()
	if len(h0) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(h0))
	}
	seen := map[string]bool{h0: true}
	for _, v := range variants {
		h := mustCanon(t, v).Hash()
		if seen[h] {
			t.Fatalf("hash collision for %+v", v)
		}
		seen[h] = true
	}
}

// TestStreamingCeiling pins the raised node ceiling: the streaming-capable
// graph classes canonicalize fine between MaxN and MaxNStream — exactly the
// range the streaming generator path (gen.BuildCSR) exists for — while
// everything else keeps the MaxN guardrail.
func TestStreamingCeiling(t *testing.T) {
	for _, sp := range []Spec{
		{Graph: "udg", Algo: "mis", N: MaxN + 1},
		{Graph: "udg", Algo: "broadcast", N: MaxNStream},
		{Graph: "phy:sinr", Algo: "decay-broadcast", N: 20000},
		{Graph: "phy:sinr", Algo: "flood", N: MaxNStream},
	} {
		c, err := sp.Canonicalize()
		if err != nil {
			t.Fatalf("Canonicalize(%+v): %v", sp, err)
		}
		if !c.StreamingCapable() {
			t.Fatalf("%+v should be streaming-capable", c)
		}
	}
	if (Spec{Graph: "grid"}).StreamingCapable() {
		t.Fatal("grid must not be streaming-capable")
	}
}

// canonicalizeErrorCases are invalid specs and the error each must raise.
var canonicalizeErrorCases = []struct {
	name string
	sp   Spec
	want string
}{
	{"bad algo", Spec{Algo: "nosuch"}, "unknown algorithm"},
	{"bad class", Spec{Graph: "nosuch"}, "unknown graph class"},
	{"bad dyn kind", Spec{Graph: "warp:grid"}, "unknown dynamic kind"},
	{"missing payload", Spec{Graph: "churn:"}, "unknown graph class"},
	{"mobile non-udg", Spec{Graph: "mobile:grid"}, "only mobile:udg"},
	{"nested dynamic", Spec{Graph: "churn:churn:grid"}, "nested dynamic spec"},
	{"n too big", Spec{N: MaxN + 1}, "out of range"},
	{"n negative", Spec{N: -3}, "out of range"},
	{"n too big names streaming classes", Spec{Graph: "grid", N: 8192}, "streaming-capable"},
	{"streaming n above memory guard", Spec{Graph: "udg", N: MaxNStream + 1}, "memory guard"},
	{"phy streaming n above memory guard", Spec{Graph: "phy:sinr", Algo: "mis", N: 1000000}, "memory guard"},
	{"reps too big", Spec{Reps: MaxReps + 1}, "out of range"},
	{"source out of range", Spec{Algo: "broadcast", N: 16, Source: 16}, "source"},
	{"source negative", Spec{Algo: "flood", N: 16, Source: -1}, "source"},
	{"churn rate above 1", Spec{Graph: "churn:grid", Algo: "flood", Rate: 1.5}, "rate"},
	{"rate NaN", Spec{Graph: "fault:grid", Algo: "flood", Rate: math.NaN()}, "rate"},
	{"epochs too big", Spec{Graph: "churn:grid", Algo: "flood", Epochs: MaxEpochs + 1}, "epochs"},
	{"epoch_len too big", Spec{Algo: "flood", EpochLen: MaxEpochLen + 1}, "epoch_len"},
}

func TestCanonicalizeErrors(t *testing.T) {
	for _, tc := range canonicalizeErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.sp.Canonicalize()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Canonicalize(%+v) = %v, want %q", tc.sp, err, tc.want)
			}
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("error %v does not wrap ErrBadSpec", err)
			}
		})
	}
}

func TestMobileSpeedAboveOneAllowed(t *testing.T) {
	c := mustCanon(t, Spec{Graph: "mobile:udg", Algo: "flood", N: 32, Rate: 1.5})
	if c.Rate != 1.5 {
		t.Fatalf("mobile rate clobbered: %v", c.Rate)
	}
}

func TestCanonicalStringAndGridID(t *testing.T) {
	c := mustCanon(t, Spec{Graph: "grid", N: 49, Algo: "mis", Seed: 7, Reps: 2})
	s := c.String()
	for _, want := range []string{"v1", "algo=mis", "graph=grid", "n=49", "seed=7", "reps=2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if !strings.HasPrefix(c.GridID(), "serve:") || len(c.GridID()) != len("serve:")+16 {
		t.Fatalf("GridID() = %q", c.GridID())
	}
	other := mustCanon(t, Spec{Graph: "grid", N: 49, Algo: "mis", Seed: 8, Reps: 2})
	if other.GridID() == c.GridID() {
		t.Fatal("distinct specs share a grid ID")
	}
}

// FuzzSpecCanonical decodes arbitrary bytes into a Spec the way the HTTP
// handler does (strict encoding/json, unknown fields rejected) and pins the
// canonicalization contract on whatever decodes: Canonicalize never panics;
// a canonical spec is a fixed point — it re-canonicalizes without error to
// itself; and Canonical() and Hash() are stable across the two passes.
func FuzzSpecCanonical(f *testing.F) {
	var seeds []Spec
	for _, tc := range equivalentSpellings {
		seeds = append(seeds, tc.a, tc.b)
	}
	for _, tc := range canonicalizeErrorCases {
		seeds = append(seeds, tc.sp)
	}
	for _, sp := range seeds {
		if raw, err := json.Marshal(sp); err == nil { // NaN rates do not marshal
			f.Add(raw)
		}
	}
	f.Add([]byte(`{"graph":"phy:sinr","algo":"mis","n":256,"beta":1.5,"noise":0.25,"path_loss":3,"cutoff":4}`))
	f.Add([]byte(`{"graph":"phy:sinr","algo":"flood","noise":0}`))
	f.Add([]byte(`{"graph":"mobile:udg","algo":"flood","rate":1.5,"epochs":3}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var sp Spec
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if dec.Decode(&sp) != nil {
			return
		}
		c, err := sp.Canonicalize()
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("Canonicalize(%s) error %v does not wrap ErrBadSpec", raw, err)
			}
			return
		}
		c2, err := c.Canonicalize()
		if err != nil {
			t.Fatalf("canonical spec %+v rejected on the second pass: %v", c, err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("Canonicalize is not idempotent:\n  first  %+v\n  second %+v", c, c2)
		}
		if !bytes.Equal(c.Canonical(), c2.Canonical()) {
			t.Fatalf("Canonical() unstable across passes:\n%s\nvs\n%s", c.Canonical(), c2.Canonical())
		}
		if c.Hash() != c2.Hash() {
			t.Fatalf("Hash() unstable across passes: %s vs %s", c.Hash(), c2.Hash())
		}
	})
}
