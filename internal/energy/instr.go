package energy

import "spacebooking/internal/obs"

// Instruments holds the package's observability counters. There is no
// package-global attachment point: netstate attaches one handle per
// State (to every battery it builds), so concurrent runs count into
// their own registries. Clones carry the parent's handle — a trial
// consumption counts like a committed one, matching the accounting the
// ledgers had when instruments were global.
type Instruments struct {
	// DeficitWalks counts deficit-profile walks: VisitDeficit calls
	// (feasibility checks) and DeficitCost calls (CEAR's pricing).
	DeficitWalks *obs.Counter
	// DeficitWalkSteps counts the slots those walks examined — the
	// real work behind DeficitWalks, since a walk through eclipse runs
	// until solar input absorbs the deficit or the horizon ends. Nil
	// leaves step counting off.
	DeficitWalkSteps *obs.Counter
	// Consumptions counts committed Consume calls across all batteries.
	Consumptions *obs.Counter
}

// countDeficitWalk counts one walk of the given number of steps. The
// walk counts its steps in a local and reports them here once, so the
// per-slot loop carries no counter traffic; a single branch when the
// battery carries no instruments.
func (in *Instruments) countDeficitWalk(steps int) {
	if in == nil {
		return
	}
	in.DeficitWalks.Inc()
	in.DeficitWalkSteps.Add(int64(steps))
}

// countConsume counts one committed consumption.
func (in *Instruments) countConsume() {
	if in == nil {
		return
	}
	in.Consumptions.Inc()
}
