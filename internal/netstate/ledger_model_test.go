package netstate

import (
	"math"
	"math/rand"
	"testing"

	"spacebooking/internal/graph"
)

// refLedger is the map-keyed link ledger the dense ISL ledger replaced,
// kept as a model: every link, ISL or not, is one map entry created on
// its first reservation attempt, with the same float operations for
// reserve and release.
type refLedger struct {
	horizon int
	capOf   func(LinkKey) float64
	used    map[LinkKey][]float64
}

func (r *refLedger) reserve(key LinkKey, slot int, rate float64) bool {
	u := r.used[key]
	if u == nil {
		u = make([]float64, r.horizon)
		r.used[key] = u
	}
	if u[slot]+rate > r.capOf(key)*(1+1e-12) {
		return false
	}
	u[slot] += rate
	return true
}

func (r *refLedger) release(key LinkKey, slot int, rate float64) {
	u := r.used[key]
	if u == nil {
		return
	}
	u[slot] -= rate
	if u[slot] < 0 {
		u[slot] = 0
	}
}

func (r *refLedger) at(key LinkKey, slot int) float64 {
	u := r.used[key]
	if u == nil || slot < 0 || slot >= len(u) {
		return 0
	}
	return u[slot]
}

func (r *refLedger) congested(slot int, frac float64) int {
	n := 0
	for key, u := range r.used {
		if slot < 0 || slot >= len(u) {
			continue
		}
		c := r.capOf(key)
		if c-u[slot] < frac*c {
			n++
		}
	}
	return n
}

// keyView is a SlotView that maps every hop to one fixed link, so a
// two-node path reserves exactly that link through Txn.ReservePath.
type keyView struct {
	key  LinkKey
	slot int
	rate float64
}

func (v keyView) LinkKeyFor(from, to int) LinkKey { return v.key }
func (v keyView) Slot() int                       { return v.slot }
func (v keyView) DemandMbps() float64             { return v.rate }

// TestDenseLedgerMatchesMapModel drives a State through random direct
// reservations and committed and rolled-back transactions, and after
// every step compares it with the map model: per-slot usage of ISL
// keys, USL keys in both directions and a satellite pair the +Grid does
// not connect; the active-link count; and the congested-link count.
// The flat view's dense-row edge prices are checked against the generic
// view's key-resolved ones along the way.
func TestDenseLedgerMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s := newTestState(t, twoCitySites(), false)
		prov := s.Provider()
		horizon := prov.Horizon()
		ref := &refLedger{horizon: horizon, capOf: s.LinkCapacityMbps, used: map[LinkKey][]float64{}}
		rng := rand.New(rand.NewSource(seed))

		// Key pool: a slice of the +Grid (both directions of a few
		// edges), user links of both ground sites, and one off-grid
		// satellite pair.
		var keys []LinkKey
		for _, sat := range []int{0, 1, 13, 50, 95} {
			for _, n := range prov.ISLNeighbors(sat) {
				keys = append(keys, MakeLinkKey(sat, n), MakeLinkKey(n, sat))
			}
		}
		for site := 0; site < 2; site++ {
			gid := prov.GlobalID(groundEP(site))
			for _, sat := range []int{0, 7, 13} {
				keys = append(keys, MakeLinkKey(gid, sat), MakeLinkKey(sat, gid))
			}
		}
		keys = append(keys, MakeLinkKey(0, 50))
		if s.LinkCapacityMbps(MakeLinkKey(0, 50)) != prov.Config().ISLCapacityMbps {
			t.Fatal("off-grid satellite pair should carry ISL capacity")
		}
		draw := func() (LinkKey, int, float64) {
			k := keys[rng.Intn(len(keys))]
			frac := 0.05 + 0.5*rng.Float64()
			if rng.Intn(10) == 0 {
				// Over capacity on its own: a first attempt on an idle
				// link fails yet still marks the link active.
				frac = 1.1
			}
			return k, rng.Intn(horizon), frac * s.LinkCapacityMbps(k)
		}

		compare := func(step int, op string) {
			t.Helper()
			for _, k := range keys {
				for slot := -1; slot <= horizon; slot++ {
					if got, want := s.LinkUsedMbps(k, slot), ref.at(k, slot); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d step %d (%s): LinkUsedMbps(%d->%d, %d) = %v, want %v",
							seed, step, op, k.From(), k.To(), slot, got, want)
					}
				}
			}
			if got, want := s.NumActiveLinks(), len(ref.used); got != want {
				t.Fatalf("seed %d step %d (%s): NumActiveLinks = %d, want %d", seed, step, op, got, want)
			}
			for slot := -1; slot <= horizon; slot++ {
				for _, frac := range []float64{0.1, 0.6} {
					if got, want := s.CongestedLinkCount(slot, frac), ref.congested(slot, frac); got != want {
						t.Fatalf("seed %d step %d (%s): CongestedLinkCount(%d, %v) = %d, want %d", seed, step, op, slot, frac, got, want)
					}
				}
			}
		}

		hop := graph.Path{Nodes: []int{0, 1}}
		for step := 0; step < 150; step++ {
			var op string
			switch k := rng.Intn(3); k {
			case 0:
				op = "ReserveLink"
				key, slot, rate := draw()
				if got, want := s.ReserveLink(key, slot, rate) == nil, ref.reserve(key, slot, rate); got != want {
					t.Fatalf("seed %d step %d: ReserveLink ok=%v, model ok=%v", seed, step, got, want)
				}
			default:
				txn := s.Begin()
				var applied []linkReservation
				for n := rng.Intn(4) + 1; n > 0; n-- {
					key, slot, rate := draw()
					err := txn.ReservePath(keyView{key, slot, rate}, hop)
					if ok := ref.reserve(key, slot, rate); ok != (err == nil) {
						t.Fatalf("seed %d step %d: ReservePath ok=%v, model ok=%v", seed, step, err == nil, ok)
					}
					if err == nil {
						applied = append(applied, linkReservation{key, slot, rate})
					}
				}
				if k == 1 {
					op = "Commit"
					txn.Commit()
				} else {
					op = "Rollback"
					txn.Rollback()
					for _, r := range applied {
						ref.release(r.key, r.slot, r.rate)
					}
				}
			}
			compare(step, op)
			if step%25 == 0 {
				checkFlatPricesMatchGeneric(t, s, rng.Intn(horizon))
			}
		}
	}
}

// checkFlatPricesMatchGeneric compares every ISL edge price the flat
// view reads from the dense row against the generic view's price, which
// resolves the same link through its key. The cost function exposes the
// utilization, so a wrong ledger cell cannot hide behind a flat price.
func checkFlatPricesMatchGeneric(t *testing.T, s *State, slot int) {
	t.Helper()
	util := func(_ LinkKey, _ graph.EdgeClass, _, u float64) float64 { return u }
	gv, err := NewView(s, slot, groundEP(0), groundEP(1), 1, util)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := NewSearchScratch().BuildView(s, slot, groundEP(0), groundEP(1), 1, util)
	if err != nil {
		t.Fatal(err)
	}
	for sat := 0; sat < s.Provider().NumSats(); sat++ {
		var want []graph.Edge
		gv.VisitNeighbors(sat, func(e graph.Edge) bool { want = append(want, e); return true })
		i := 0
		fv.VisitNeighbors(sat, func(e graph.Edge) bool {
			if i >= len(want) || e != want[i] {
				t.Fatalf("slot %d sat %d edge %d: flat %+v, generic %+v", slot, sat, i, e, want)
			}
			i++
			return true
		})
		if i != len(want) {
			t.Fatalf("slot %d sat %d: flat visited %d edges, generic %d", slot, sat, i, len(want))
		}
	}
}
