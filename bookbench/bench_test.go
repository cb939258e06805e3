package main

import (
	"io"
	"os"
	"testing"

	"spacebooking"
)

// smallPaper is the paper's workload at small scale, served like
// paper-medium: cheap enough for a unit test, same gates.
func smallPaper(t *testing.T) (*bench, *spacebooking.Environment) {
	t.Helper()
	env, err := spacebooking.NewEnvironment(spacebooking.EnvConfig{Scale: spacebooking.ScaleSmall})
	if err != nil {
		t.Fatal(err)
	}
	wl := workloadDef{name: "paper-small", scale: spacebooking.ScaleSmall, conns: 1, exact: true, stream: paperStream}
	return &bench{wl: wl, seed: defaultSeed, workDir: t.TempDir(), log: io.Discard}, env
}

func TestServedPassMatchesSimRun(t *testing.T) {
	b, env := smallPaper(t)
	seed := passSeed(b.seed, 0)
	stream, err := paperStream(env, seed)
	if err != nil {
		t.Fatal(err)
	}
	var plain, traced servedAgg
	served, err := b.servePass(env, stream, seed, 0, false, &plain)
	if err != nil {
		t.Fatal(err)
	}
	tracedRes, err := b.servePass(env, stream, seed, 0, true, &traced)
	if err != nil {
		t.Fatal(err)
	}
	want, err := simRun(env, stream, seed)
	if err != nil {
		t.Fatal(err)
	}
	b.checkExact("served", 0, served, want)
	b.checkExact("traced served", 0, tracedRes, want)
	if len(b.violations) > 0 {
		t.Fatalf("gates failed on a correct pass: %v", b.violations)
	}
	if plain.tally.sent != len(stream) || plain.tally.decided() != len(stream) {
		t.Errorf("tally %+v, want all %d bookings decided", plain.tally, len(stream))
	}
	if len(traced.parseUs) != len(stream) {
		t.Errorf("joined %d audit records, want %d", len(traced.parseUs), len(stream))
	}
	if entries, err := os.ReadDir(b.workDir); err != nil || len(entries) != 0 {
		t.Errorf("work directory holds %d entries after the pass (err %v), want the audit log removed", len(entries), err)
	}

	// The gate must notice any difference from sim.Run.
	off := *want
	off.Revenue *= 1 + 1e-12
	b.checkExact("served", 0, served, &off)
	if len(b.violations) != 1 {
		t.Errorf("revenue off by one part in 1e12: %d violations, want 1", len(b.violations))
	}
}

func TestOperatingPointGate(t *testing.T) {
	for _, tc := range []struct {
		accepted, rejected int
		ok                 bool
	}{
		{50, 50, true}, {45, 55, true}, {65, 35, true},
		{44, 56, false}, {66, 34, false}, {0, 0, false},
	} {
		b := &bench{}
		b.checkOperatingPoint(tally{accepted: tc.accepted, rejected: tc.rejected})
		if ok := len(b.violations) == 0; ok != tc.ok {
			t.Errorf("accepted %d rejected %d: gate passed %v, want %v (%v)", tc.accepted, tc.rejected, ok, tc.ok, b.violations)
		}
	}
}

func TestPassSeedsDeriveFromWorkloadSeed(t *testing.T) {
	seen := map[int64]bool{}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		for pass := 0; pass < 50; pass++ {
			s := passSeed(seed, pass)
			if s != passSeed(seed, pass) {
				t.Fatalf("passSeed(%d, %d) not deterministic", seed, pass)
			}
			if seen[s] {
				t.Fatalf("passSeed(%d, %d) = %d repeats an earlier pass seed", seed, pass, s)
			}
			seen[s] = true
		}
	}
}
