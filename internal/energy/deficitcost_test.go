package energy

import (
	"math"
	"math/rand"
	"testing"

	"spacebooking/internal/obs"
	"spacebooking/internal/pricing"
)

// closureDeficitCost is the reference DeficitCost replaces: the
// VisitDeficit walk with the pricing closure CEAR used to pass it,
// evaluating the price function afresh at every slot.
func closureDeficitCost(b *Battery, ta int, joules float64, unitPrice func(float64) float64) (float64, bool) {
	capJ := b.CapacityJ()
	cost := 0.0
	ok := true
	b.VisitDeficit(ta, joules, func(t int, outstanding float64) bool {
		if b.DeficitAt(t)+outstanding > capJ*(1+1e-12) {
			ok = false
			return false
		}
		if unitPrice != nil {
			cost += unitPrice(b.UtilizationAt(t)) * outstanding
		}
		return true
	})
	if !ok {
		return 0, false
	}
	return cost, true
}

// memoBattery is one ledger under test plus the memo row a CEAR
// instance would keep for it.
type memoBattery struct {
	b     *Battery
	row   []float64
	ver   uint64
	snaps []*Battery // earlier clones, restored via CopyFrom
}

// TestDeficitCostMatchesClosureUnderMutation drives batteries through
// random interleavings of every ledger operation while one memo row per
// battery persists across them, and requires every DeficitCost to be
// bit-identical to the closure reference. A mutation that forgot to
// advance the battery version would leave a stale price in the row and
// fail here; ledger reads (TrialConsume, VisitDeficit, DeficitCost)
// must leave the version alone.
func TestDeficitCostMatchesClosureUnderMutation(t *testing.T) {
	params, err := pricing.Derive(1, 1, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	fast := params.Fast()
	prices := []struct {
		name string
		fn   func(float64) float64
	}{
		{"exponential", fast.EnergyUnitCost},
		{"linear", func(l float64) float64 { return (params.Mu2 - 1) * l }},
		{"none", nil},
	}
	const horizon, capJ = 48, 1000.0
	for _, pr := range prices {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			bats := make([]*memoBattery, 3)
			for i := range bats {
				// Orbit-like sunlight: a lit arc and an eclipse arc with a
				// random phase, so walks both absorb and run to the end.
				solar := make([]float64, horizon)
				phase := rng.Intn(16)
				for s := range solar {
					if (s+phase)%16 < 10 {
						solar[s] = 40 + 20*rng.Float64()
					}
				}
				b, err := NewBattery(capJ, solar, false)
				if err != nil {
					t.Fatal(err)
				}
				bats[i] = &memoBattery{b: b, row: make([]float64, horizon), ver: math.MaxUint64}
			}
			check := func(step int, op string) {
				t.Helper()
				for bi, mb := range bats {
					for q := 0; q < 4; q++ {
						ta := rng.Intn(horizon+2) - 1
						j := rng.Float64() * 700
						if q == 0 {
							j = 0
						}
						ver := mb.b.Version()
						got, gotOK := mb.b.DeficitCost(ta, j, mb.row, &mb.ver, pr.fn)
						want, wantOK := closureDeficitCost(mb.b, ta, j, pr.fn)
						if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s seed %d step %d (after %s) battery %d ta=%d j=%v: DeficitCost=(%v,%v) want (%v,%v)",
								pr.name, seed, step, op, bi, ta, j, got, gotOK, want, wantOK)
						}
						if mb.b.Version() != ver {
							t.Fatalf("%s step %d: DeficitCost changed the version", pr.name, step)
						}
					}
				}
			}
			for step := 0; step < 400; step++ {
				mb := bats[rng.Intn(len(bats))]
				ta := rng.Intn(horizon)
				j := rng.Float64() * 600
				before := mb.b.Version()
				var op string
				mutated := false
				switch k := rng.Intn(4); k {
				case 0:
					op = "Consume"
					mutated = mb.b.Consume(ta, j) == nil
				case 1:
					op = "Clone"
					mb.snaps = append(mb.snaps, mb.b.Clone())
				case 2:
					op = "CopyFrom"
					if n := len(mb.snaps); n > 0 {
						mb.b.CopyFrom(mb.snaps[rng.Intn(n)])
						mutated = true
					}
				default:
					op = "TrialConsume"
					_ = mb.b.TrialConsume(ta, j)
				}
				if after := mb.b.Version(); mutated && after <= before {
					t.Fatalf("%s step %d: %s mutated the ledger but version %d -> %d", pr.name, step, op, before, after)
				} else if !mutated && after != before {
					t.Fatalf("%s step %d: %s left the ledger unchanged but version %d -> %d", pr.name, step, op, before, after)
				}
				check(step, op)
			}
		}
	}
}

// TestDeficitCostCountsWalkSteps checks the step counter: one walk per
// call and one step per slot examined, matching VisitDeficit's count
// for the same walk.
func TestDeficitCostCountsWalkSteps(t *testing.T) {
	b, err := NewBattery(100, []float64{10, 10, 0, 0, 50, 50}, false)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	in := &Instruments{
		DeficitWalks:     reg.Counter("walks"),
		DeficitWalkSteps: reg.Counter("steps"),
	}
	b.Instrument(in)
	row := make([]float64, b.Horizon())
	ver := uint64(math.MaxUint64)
	// 40 J at slot 0: 30 after slot 0, 20, 20, 20 persist; slot 4 absorbs.
	if _, ok := b.DeficitCost(0, 40, row, &ver, func(float64) float64 { return 1 }); !ok {
		t.Fatal("infeasible")
	}
	if w, s := in.DeficitWalks.Value(), in.DeficitWalkSteps.Value(); w != 1 || s != 5 {
		t.Fatalf("walks=%d steps=%d, want 1 and 5", w, s)
	}
	b.VisitDeficit(0, 40, func(int, float64) bool { return true })
	if w, s := in.DeficitWalks.Value(), in.DeficitWalkSteps.Value(); w != 2 || s != 10 {
		t.Fatalf("after VisitDeficit walks=%d steps=%d, want 2 and 10", w, s)
	}
	b.Instrument(nil)
	b.DeficitCost(0, 40, row, &ver, nil) // detached: must not panic
}
