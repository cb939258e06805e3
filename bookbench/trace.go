package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"spacebooking"
	"spacebooking/internal/obs"
	"spacebooking/internal/server"
	"spacebooking/internal/sim"
)

// readAudit decodes a JSONL audit log.
func readAudit(r io.Reader) ([]server.AuditRecord, error) {
	var recs []server.AuditRecord
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		var rec server.AuditRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("audit line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read audit log: %w", err)
	}
	return recs, nil
}

// joined is one traced booking: the server's phase durations joined to
// the client's round trip.
type joined struct {
	parse, queueWait, batchWait, admit, respond time.Duration
	rtt                                         time.Duration
}

// joinAudit joins a pass's audit records to its client samples by
// client request id. Every decided booking must have exactly one
// record, with the outcome the client saw and a full phase timeline;
// any other record, duplicate or mismatch is an error.
func joinAudit(recs []server.AuditRecord, pass int, samples []sample) ([]joined, error) {
	byID := make(map[string]*server.AuditRecord, len(recs))
	for i := range recs {
		r := &recs[i]
		if byID[r.ClientID] != nil {
			return nil, fmt.Errorf("duplicate audit record for request %q", r.ClientID)
		}
		byID[r.ClientID] = r
	}
	out := make([]joined, 0, len(samples))
	for i, s := range samples {
		id := clientID(pass, i)
		r := byID[id]
		delete(byID, id)
		if s.outcome == outFailed && s.status == statusTransport {
			// The server may or may not have seen the request.
			continue
		}
		if r == nil {
			return nil, fmt.Errorf("no audit record for request %q", id)
		}
		if r.Outcome != s.status {
			return nil, fmt.Errorf("request %q: audit outcome %q, client saw %q", id, r.Outcome, s.status)
		}
		if s.outcome == outFailed {
			continue
		}
		if !r.Sampled {
			return nil, fmt.Errorf("request %q: audit record carries no phase timeline", id)
		}
		j := joined{rtt: s.rtt}
		for _, sp := range r.Phases {
			d := time.Duration(sp.DurNs())
			switch sp.Name {
			case server.PhaseIngressParse:
				j.parse = d
			case server.PhaseQueueWait:
				j.queueWait = d
			case server.PhaseBatchWait:
				j.batchWait = d
			case server.PhaseEngineAdmit:
				j.admit = d
			case server.PhaseRespond:
				j.respond = d
			}
		}
		out = append(out, j)
	}
	for id := range byID {
		return nil, fmt.Errorf("audit record for unknown request %q", id)
	}
	return out, nil
}

// replayCounters are the engine's work counters the in-process replay
// reports per booking.
var replayCounters = []string{
	"core.slot_searches",
	"graph.dijkstra.heap_pops",
	"graph.edge_relaxations",
	"graph.fastpath.pruned_labels",
	"netstate.scratch.reuses",
	"energy.deficit_walks",
	"pricing.lut_lookups",
	"netstate.link.reservations",
	"energy.consumptions",
	"netstate.trial_consumes",
	"netstate.txn.commits",
	"netstate.txn.rollbacks",
}

// replayAgg accumulates in-process replays: each pass's stream admitted
// through sim.NewEngine with trace detail on, timed around every
// public call.
type replayAgg struct {
	newEngineMs                            []float64
	admitUs, searchUs, pricingUs, commitUs []float64
	requests                               int64
	counters                               map[string]int64
}

// replay admits the stream in order on a fresh engine configured as
// the daemon's and returns the engine's result.
func (a *replayAgg) replay(env *spacebooking.Environment, stream []booking, seed int64) (*sim.Result, error) {
	rc, err := runConfig(env, seed)
	if err != nil {
		return nil, err
	}
	reg := obs.New()
	rc.Obs = reg
	rc.HotspotK = hotspotK
	t0 := time.Now()
	eng, err := sim.NewEngine(env.Provider, rc)
	if err != nil {
		return nil, err
	}
	a.newEngineMs = append(a.newEngineMs, float64(time.Since(t0))/float64(time.Millisecond))
	eng.EnableTraceDetail()
	searchNs := reg.Counter("graph.search.nanos")
	pricingNs := reg.Counter("energy.pricing.nanos")
	commitNs := reg.Counter("netstate.commit.nanos")
	for _, b := range stream {
		s0, p0, c0 := searchNs.Value(), pricingNs.Value(), commitNs.Value()
		t := time.Now()
		if _, err := eng.Admit(b.req); err != nil {
			return nil, err
		}
		a.admitUs = append(a.admitUs, float64(time.Since(t))/float64(time.Microsecond))
		pricing := pricingNs.Value() - p0
		// Search time includes the pricing callbacks it makes.
		a.searchUs = append(a.searchUs, float64(searchNs.Value()-s0-pricing)/1e3)
		a.pricingUs = append(a.pricingUs, float64(pricing)/1e3)
		a.commitUs = append(a.commitUs, float64(commitNs.Value()-c0)/1e3)
	}
	res, err := eng.Finish()
	if err != nil {
		return nil, err
	}
	if a.counters == nil {
		a.counters = make(map[string]int64, len(replayCounters))
	}
	for _, name := range replayCounters {
		a.counters[name] += reg.Counter(name).Value()
	}
	a.requests += int64(len(stream))
	return res, nil
}

// perReq is a replay counter total per replayed booking.
func (a *replayAgg) perReq(name string) float64 {
	return float64(a.counters[name]) / float64(a.requests)
}
