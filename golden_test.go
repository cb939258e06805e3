package spacebooking

// Seed-swept golden decision digests: every CEAR decision (accepted
// flag, exact price bits, rejection reason and the full per-slot plan)
// for CEAR and its CEAR-LIN / CEAR-NE ablations at small scale is
// folded into one SHA-256 per (algorithm, rate, seed) and compared with
// testdata/cear_decisions.golden. The generic-vs-flat equivalence tests
// cannot catch a defect shared by both search paths (e.g. a stale energy
// price memo); this file pins the decisions themselves, so any change to
// pricing arithmetic or tie-breaking shows up as a digest mismatch.
//
// The digests are recorded on amd64. Go may fuse a*b+c into one FMA
// instruction on other architectures (arm64, ppc64le, s390x), which
// changes the last bits of prices, so the test only runs on amd64.
//
// Regenerate only for an intended decision change:
//
//	go test -run TestGoldenDecisionDigests -update-golden .

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"spacebooking/internal/core"
	"spacebooking/internal/netstate"
	"spacebooking/internal/router"
	"spacebooking/internal/sim"
	"spacebooking/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/cear_decisions.golden")

const goldenPath = "testdata/cear_decisions.golden"

// goldenCase is one (algorithm variant, load multiplier, seed) cell.
type goldenCase struct {
	name     string
	opts     func(*core.Options)
	rateMult float64
	seed     int64
}

func goldenCases() []goldenCase {
	variants := []struct {
		name string
		opts func(*core.Options)
	}{
		{"CEAR", func(*core.Options) {}},
		{"CEAR-LIN", func(o *core.Options) { o.LinearPricing = true }},
		{"CEAR-NE", func(o *core.Options) { o.DisableEnergyPricing = true }},
	}
	var out []goldenCase
	for _, v := range variants {
		// 1× is the calibrated operating point; 2× drives congestion,
		// energy infeasibility and price-out rejections.
		for _, mult := range []float64{1, 2} {
			for _, seed := range []int64{1, 7, 101} {
				out = append(out, goldenCase{name: v.name, opts: v.opts, rateMult: mult, seed: seed})
			}
		}
	}
	return out
}

func (c goldenCase) key() string {
	return fmt.Sprintf("%s/rate%gx/seed%d", c.name, c.rateMult, c.seed)
}

// writeDecision serialises one decision with exact float bits.
func writeDecision(w *bufio.Writer, i int, d router.Decision) {
	fmt.Fprintf(w, "%d %t %016x %q", i, d.Accepted, math.Float64bits(d.Price), d.Reason)
	for _, sp := range d.Plan.Paths {
		fmt.Fprintf(w, " |%d %016x", sp.Slot, math.Float64bits(sp.Path.Cost))
		for _, n := range sp.Path.Nodes {
			fmt.Fprintf(w, " %d", n)
		}
		for _, e := range sp.Path.Edges {
			fmt.Fprintf(w, " %d:%d:%016x", e.To, e.Class, math.Float64bits(e.Cost))
		}
	}
	w.WriteByte('\n')
}

// goldenDigest runs one case and returns its digest plus the accept
// count (kept in the golden file so a mismatch is easier to read).
func goldenDigest(t *testing.T, env *Environment, c goldenCase) (string, int, int) {
	t.Helper()
	wl := env.WorkloadConfig(c.rateMult*env.DefaultArrivalRate(), c.seed)
	rc, err := env.RunConfig(sim.AlgCEAR, wl)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	state, err := netstate.New(env.Provider, rc.Energy, false)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Pricing: rc.Pricing}
	c.opts(&opts)
	alg, err := core.New(state, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	w := bufio.NewWriter(h)
	accepted := 0
	for i, req := range reqs {
		d, err := alg.Handle(req)
		if err != nil {
			t.Fatalf("%s: Handle(%d): %v", c.key(), i, err)
		}
		if d.Accepted {
			accepted++
		}
		writeDecision(w, i, d)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), accepted, len(reqs)
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with -update-golden)", err)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		out[key] = rest
	}
	return out
}

// TestGoldenDecisionDigests pins CEAR's, CEAR-LIN's and CEAR-NE's
// per-request decisions bit for bit across seeds {1, 7, 101}.
func TestGoldenDecisionDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	env := smallEnv(t)
	got := make(map[string]string)
	for _, c := range goldenCases() {
		digest, accepted, total := goldenDigest(t, env, c)
		got[c.key()] = fmt.Sprintf("%s accepted=%d/%d", digest, accepted, total)
	}
	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString("# SHA-256 of every CEAR decision (accepted, price bits, reason, plan) per case.\n")
		b.WriteString("# Regenerate: go test -run TestGoldenDecisionDigests -update-golden .\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, test produced %d", len(want), len(got))
	}
	for k, g := range got {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: missing from golden", k)
		} else if w != g {
			t.Errorf("%s: decisions changed\n got  %s\n want %s", k, g, w)
		}
	}
}
