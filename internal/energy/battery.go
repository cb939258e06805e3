// Package energy implements the satellite energy model of §III-C of the
// paper: solar panels harvest a per-slot energy input, a battery stores
// up to a fixed capacity, and serving a request in slot T_a creates a
// *battery deficit* that persists into future slots until replenished by
// leftover solar input (Eqs. (2)–(5)).
//
// The ledger tracks, per satellite:
//
//   - solarRemaining[t] — α_s(t), solar energy still unclaimed in slot t
//     after all committed reservations, and
//   - deficit[t] — the total outstanding battery deficit at the end of
//     slot t across all committed reservations (ϖ_s − b_s(t)).
//
// The recurrence of Eq. (2) telescopes — once the max() clamps to zero it
// stays zero — so a single consumption's deficit profile is a strictly
// decreasing run that the ledger walks in O(absorption span).
package energy

import (
	"fmt"
	"math"
)

// Battery is one satellite's energy ledger over the simulation horizon.
// The zero value is not usable; construct with NewBattery.
type Battery struct {
	capacityJ      float64
	solarRemaining []float64
	deficit        []float64
	// clamp selects baseline-mode accounting: the battery saturates at
	// empty instead of rejecting infeasible consumption. CEAR batteries
	// run with clamp=false and enforce b_s(T) >= 0 (constraint (7c)).
	clamp bool
	instr *Instruments
	// ver counts ledger mutations (Consume, CopyFrom). Anything derived
	// from the ledger — CEAR's per-slot energy-price memo — is valid
	// exactly while the version it was taken at is current.
	ver uint64
}

// NewBattery builds a ledger with the given capacity (joules) and
// per-slot solar input (joules per slot). The solar slice is copied.
// Per the paper we start with a full battery and untouched solar input.
func NewBattery(capacityJ float64, solarInputJ []float64, clamp bool) (*Battery, error) {
	if capacityJ <= 0 {
		return nil, fmt.Errorf("energy: capacity must be positive, got %v", capacityJ)
	}
	if len(solarInputJ) == 0 {
		return nil, fmt.Errorf("energy: empty solar input vector")
	}
	solar := make([]float64, len(solarInputJ))
	for t, s := range solarInputJ {
		if s < 0 || math.IsNaN(s) {
			return nil, fmt.Errorf("energy: invalid solar input %v at slot %d", s, t)
		}
		solar[t] = s
	}
	return &Battery{
		capacityJ:      capacityJ,
		solarRemaining: solar,
		deficit:        make([]float64, len(solarInputJ)),
		clamp:          clamp,
	}, nil
}

// Instrument attaches (or with nil, detaches) the counters this ledger
// advances. Plain field write: attach before the run starts. Clones
// inherit the handle, so trial ledgers count into the same registry.
func (b *Battery) Instrument(in *Instruments) { b.instr = in }

// Version returns the ledger's mutation count. Every call that changes
// solarRemaining or deficit advances it, so two reads returning the
// same version bracket an unchanged ledger. A restore (CopyFrom) also
// advances it: versions never run backwards, even when the contents
// do.
func (b *Battery) Version() uint64 { return b.ver }

// Horizon returns the number of slots the ledger covers.
func (b *Battery) Horizon() int { return len(b.deficit) }

// CapacityJ returns the battery capacity ϖ_s.
func (b *Battery) CapacityJ() float64 { return b.capacityJ }

// DeficitAt returns the total outstanding deficit ϖ_s − b_s(t) at the end
// of slot t. Out-of-range slots report zero.
func (b *Battery) DeficitAt(t int) float64 {
	if t < 0 || t >= len(b.deficit) {
		return 0
	}
	return b.deficit[t]
}

// LevelAt returns the remaining battery energy b_s(t), per Eq. (4).
func (b *Battery) LevelAt(t int) float64 {
	return b.capacityJ - b.DeficitAt(t)
}

// SumDeficitJ returns the fleet-wide outstanding energy deficit
// Σ_s (ϖ_s − b_s(t)) at the end of slot t — the per-slot energy-debt
// telemetry behind the run report's time series. Allocation-free.
func SumDeficitJ(batteries []*Battery, t int) float64 {
	total := 0.0
	for _, b := range batteries {
		if b != nil {
			total += b.DeficitAt(t)
		}
	}
	return total
}

// UtilizationAt returns λ_s(t) = (ϖ_s − b_s(t)) / ϖ_s, per Eq. (9),
// clamped to [0, 1].
func (b *Battery) UtilizationAt(t int) float64 {
	if t < 0 || t >= len(b.deficit) {
		return 0
	}
	u := b.deficit[t] / b.capacityJ
	switch {
	case u < 0:
		return 0
	case u > 1:
		return 1
	default:
		return u
	}
}

// SolarRemainingAt returns α_s(t), the unclaimed solar energy of slot t.
func (b *Battery) SolarRemainingAt(t int) float64 {
	if t < 0 || t >= len(b.solarRemaining) {
		return 0
	}
	return b.solarRemaining[t]
}

// VisitDeficit walks, without mutating the ledger, the deficit profile
// Ω̄(ta, t) that consuming `joules` in slot ta would add: fn is invoked
// for every slot t >= ta while the outstanding deficit is positive, with
// the deficit value that would persist at the end of slot t. Returning
// false from fn stops the walk early.
//
// This is the primitive behind both CEAR's energy pricing (Eq. (12)'s
// second term sums price(t)·Ω̄(ta,t) over the deficit's lifetime) and
// feasibility checks.
func (b *Battery) VisitDeficit(ta int, joules float64, fn func(t int, outstanding float64) bool) {
	if joules <= 0 || ta < 0 || ta >= len(b.deficit) {
		b.instr.countDeficitWalk(0)
		return
	}
	steps := 0
	remaining := joules
	for t := ta; t < len(b.deficit); t++ {
		steps++
		if solar := b.solarRemaining[t]; solar < remaining {
			remaining -= solar
		} else {
			break
		}
		if !fn(t, remaining) {
			break
		}
	}
	b.instr.countDeficitWalk(steps)
}

// DeficitCost is the closure-free pricing walk behind the second term
// of Eq. (12): Σ_{t ≥ ta} unit(t) · Ω̄(ta, t), where Ω̄ is the deficit
// profile VisitDeficit walks and unit(t) = unitPrice(λ(t)) is the
// per-joule energy price at slot t's committed utilization. ok is false
// (and cost zero) when the consumption would breach capacity at some
// slot, the same (1+1e-12)-tolerant test CEAR's feasibility mask has
// always applied. A nil unitPrice only checks feasibility; memo and
// memoVer are then unused and may be nil.
//
// memo is the caller's per-slot unit-price row for this battery (one
// float64 per slot, NaN meaning "not priced yet") and memoVer the
// ledger version the row was filled at. unit(t) depends only on
// deficit[t], so a row stays exact until the ledger mutates: on a
// version mismatch the row is reset to NaN and refilled lazily, and
// unitPrice runs only for slots not priced since the last mutation.
//
// The float operations — the solar < remaining test, the subtraction,
// the capacity test, then cost += unit(t)·outstanding — are those of
// VisitDeficit plus the pricing closure it replaces, in the same order,
// so the result is bit-identical to the closure form.
func (b *Battery) DeficitCost(ta int, joules float64, memo []float64, memoVer *uint64, unitPrice func(lambda float64) float64) (cost float64, ok bool) {
	if joules <= 0 || ta < 0 || ta >= len(b.deficit) {
		b.instr.countDeficitWalk(0)
		return 0, true
	}
	if unitPrice != nil && *memoVer != b.ver {
		nan := math.NaN()
		for i := range memo {
			memo[i] = nan
		}
		*memoVer = b.ver
	}
	// Slot ta onwards, resliced to one length so the loops run without
	// bounds checks.
	solar := b.solarRemaining[ta:]
	deficit := b.deficit[ta:][:len(solar)]
	limit := b.capacityJ * (1 + 1e-12)
	ok = true
	remaining := joules
	i := 0
	if unitPrice == nil {
		for ; i < len(solar); i++ {
			if solar[i] < remaining {
				remaining -= solar[i]
			} else {
				break
			}
			if deficit[i]+remaining > limit {
				ok = false
				break
			}
		}
	} else {
		row := memo[ta:][:len(solar)]
		for ; i < len(solar); i++ {
			if solar[i] < remaining {
				remaining -= solar[i]
			} else {
				break
			}
			if deficit[i]+remaining > limit {
				cost, ok = 0, false
				break
			}
			u := row[i]
			if math.IsNaN(u) { // first use since the last mutation
				u = unitPrice(b.UtilizationAt(ta + i))
				row[i] = u
			}
			cost += u * remaining
		}
	}
	// Steps examined: the slots walked plus the one that ended the walk.
	b.instr.countDeficitWalk(min(i+1, len(solar)))
	return cost, ok
}

// Feasible reports whether consuming `joules` in slot ta keeps the
// battery within capacity (b_s(t) >= 0) at every slot, given the current
// committed state. Always true in clamp mode.
func (b *Battery) Feasible(ta int, joules float64) bool {
	if b.clamp {
		return true
	}
	ok := true
	b.VisitDeficit(ta, joules, func(t int, outstanding float64) bool {
		if b.deficit[t]+outstanding > b.capacityJ*(1+1e-12) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// DepletionError is returned by Consume when a non-clamping battery
// would be driven below empty.
type DepletionError struct {
	Slot      int
	DeficitJ  float64
	CapacityJ float64
}

func (e *DepletionError) Error() string {
	return fmt.Sprintf("energy: deficit %.1f J exceeds capacity %.1f J at slot %d",
		e.DeficitJ, e.CapacityJ, e.Slot)
}

// Consume commits an energy consumption of `joules` in slot ta,
// implementing lines 9–16 of Algorithm 1: solar input of slot ta (and of
// subsequent slots) is claimed first; whatever cannot be covered becomes
// battery deficit that persists until fully absorbed by later solar.
//
// In strict mode (clamp=false) the commit is atomic: if any slot would
// exceed capacity, the ledger is left untouched and a *DepletionError is
// returned. In clamp mode the posted deficit saturates at capacity (the
// battery pegs at empty) and the call always succeeds.
func (b *Battery) Consume(ta int, joules float64) error {
	if joules < 0 || math.IsNaN(joules) {
		return fmt.Errorf("energy: invalid consumption %v", joules)
	}
	if joules == 0 {
		return nil
	}
	if ta < 0 || ta >= len(b.deficit) {
		return fmt.Errorf("energy: slot %d outside horizon [0,%d)", ta, len(b.deficit))
	}
	if !b.clamp && !b.Feasible(ta, joules) {
		var failSlot int
		var failDeficit float64
		b.VisitDeficit(ta, joules, func(t int, outstanding float64) bool {
			if b.deficit[t]+outstanding > b.capacityJ {
				failSlot, failDeficit = t, b.deficit[t]+outstanding
				return false
			}
			return true
		})
		return &DepletionError{Slot: failSlot, DeficitJ: failDeficit, CapacityJ: b.capacityJ}
	}

	b.instr.countConsume()
	b.ver++
	remaining := joules
	for t := ta; t < len(b.deficit); t++ {
		absorb := math.Min(remaining, b.solarRemaining[t])
		b.solarRemaining[t] -= absorb
		remaining -= absorb
		if remaining <= 0 {
			return nil
		}
		post := remaining
		if b.clamp {
			// The battery cannot discharge below empty: cap both the
			// posted deficit and the amount carried forward.
			if post > b.capacityJ {
				post = b.capacityJ
				remaining = b.capacityJ
			}
			if b.deficit[t]+post > b.capacityJ {
				post = b.capacityJ - b.deficit[t]
			}
		}
		b.deficit[t] += post
	}
	return nil
}

// Clone returns an independent deep copy of the ledger, version
// included. CEAR uses clones to trial-apply a candidate reservation
// plan (whose slots interact through this very ledger) before
// committing it.
func (b *Battery) Clone() *Battery {
	solar := make([]float64, len(b.solarRemaining))
	copy(solar, b.solarRemaining)
	deficit := make([]float64, len(b.deficit))
	copy(deficit, b.deficit)
	return &Battery{
		capacityJ:      b.capacityJ,
		solarRemaining: solar,
		deficit:        deficit,
		clamp:          b.clamp,
		instr:          b.instr,
		ver:            b.ver,
	}
}

// CopyFrom overwrites this ledger with src's contents, reusing the
// receiver's backing arrays when they have capacity. The transaction
// layer's snapshot arena uses it to snapshot and restore batteries
// without allocating a fresh Battery per touched satellite per request.
// Like any mutation it advances the receiver's version: a restored
// ledger never reuses a version some memo was stamped with while the
// ledger held other contents.
func (b *Battery) CopyFrom(src *Battery) {
	b.ver++
	b.capacityJ = src.capacityJ
	b.solarRemaining = append(b.solarRemaining[:0], src.solarRemaining...)
	b.deficit = append(b.deficit[:0], src.deficit...)
	b.clamp = src.clamp
	b.instr = src.instr
}

// TrialConsume checks whether Consume(ta, joules) would succeed, without
// mutating the ledger: Consume's validation and feasibility logic with
// the commit skipped. Errors (including *DepletionError contents) and
// instrument counts match Consume's exactly, so trialling a single
// consumption this way is equivalent to applying it on a throwaway
// Clone — minus the clone.
func (b *Battery) TrialConsume(ta int, joules float64) error {
	if joules < 0 || math.IsNaN(joules) {
		return fmt.Errorf("energy: invalid consumption %v", joules)
	}
	if joules == 0 {
		return nil
	}
	if ta < 0 || ta >= len(b.deficit) {
		return fmt.Errorf("energy: slot %d outside horizon [0,%d)", ta, len(b.deficit))
	}
	if !b.clamp && !b.Feasible(ta, joules) {
		var failSlot int
		var failDeficit float64
		b.VisitDeficit(ta, joules, func(t int, outstanding float64) bool {
			if b.deficit[t]+outstanding > b.capacityJ {
				failSlot, failDeficit = t, b.deficit[t]+outstanding
				return false
			}
			return true
		})
		return &DepletionError{Slot: failSlot, DeficitJ: failDeficit, CapacityJ: b.capacityJ}
	}
	b.instr.countConsume()
	return nil
}

// SolarInputVector builds a per-slot solar input vector (joules per slot)
// from sunlit flags, a panel power in watts, and the slot length in
// seconds. Slots in umbra harvest nothing.
func SolarInputVector(sunlit []bool, panelWatts, slotSeconds float64) []float64 {
	out := make([]float64, len(sunlit))
	perSlot := panelWatts * slotSeconds
	for t, lit := range sunlit {
		if lit {
			out[t] = perSlot
		}
	}
	return out
}
