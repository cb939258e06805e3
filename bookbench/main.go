// Command bookbench is the booking benchmark: it serves CEAR bookings
// from an in-process spaced (built through the same public
// constructors cmd/spaced uses, with spaced's defaults) to a load
// generator in the same process over loopback HTTP, at the calibrated
// operating point where admission binds.
//
// Usage, from the repository root:
//
//	bash bookbench/run.sh --workload paper-medium --seed 101 --seconds 15 --trace 0
//
// It prints progress lines and then, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 it also serves every
// pass with full tracing and replays it in-process, and reports the
// per-layer set. It exits non-zero when a gate fails: served results
// differing from sim.Run, server counters not reconciling with the
// client's, acceptance outside the calibrated band, or a booking
// answered horizon-exhausted. README.md documents the metrics and
// workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// defaultSeed is the workload seed used while developing; heldOutSeed is
// kept for confirming later claims on a seed no change was tuned on.
const (
	defaultSeed = 101
	heldOutSeed = 7
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bookbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed; pass seeds derive from it (held-out seed for claims: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 15, "serve passes until this much sending time has been measured")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workDir := fs.String("workdir", ".bench_build", "directory for the traced run's audit logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "bookbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "bookbench: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "bookbench: --seconds must be positive, got %v\n", *seconds)
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bookbench: %v\n", err)
		return 1
	}
	b := &bench{wl: wl, seed: *seed, seconds: *seconds, traced: *traceFlag == 1, workDir: *workDir, log: stdout}
	r, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "bookbench: %s: %v\n", wl.name, err)
		return 1
	}
	res := result{
		Correct:   len(b.violations) == 0,
		Attempted: int64(r.plain.tally.sent + r.traced.tally.sent),
		Failed:    int64(r.plain.tally.failed + r.traced.tally.failed),
	}
	if b.traced {
		res.Metrics = perLayerMetrics(r)
	} else {
		res.Metrics = endToEndMetrics(r)
	}
	b.summarize(r)
	for _, v := range b.violations {
		fmt.Fprintf(stdout, "GATE FAILED: %s\n", v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bookbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func chunkP50(c chunkStats) float64 { return c.p50 }

// endToEndMetrics are what a booking client sees, measured untraced.
func endToEndMetrics(r *runResult) map[string]metric {
	p := &r.plain
	t := p.tally
	cs := p.chunks.stats()
	return map[string]metric{
		"setup_s":        {median(r.setupS), "s"},
		"book_p50_ms":    {medianOver(cs, chunkP50), "ms"},
		"book_p99_ms":    {medianOver(cs, func(c chunkStats) float64 { return c.p99 }), "ms"},
		"book_rps":       {medianOver(cs, func(c chunkStats) float64 { return c.rps }), "1/s"},
		"accept_ratio":   {float64(t.accepted) / float64(t.decided()), "ratio"},
		"welfare_ratio":  {p.accVal / p.totalVal, "ratio"},
		"answered_ratio": {float64(t.decided()) / float64(t.sent), "ratio"},
		"slo_ok_ratio":   {float64(p.sloOK) / float64(t.sent), "ratio"},
		"live_heap_mb":   {median(p.heapMB), "MB"},
	}
}

// perLayerMetrics break a booking down by layer, from the traced
// passes' audit phases, the in-process replay's timers and counters,
// and the untraced passes of the same run.
func perLayerMetrics(r *runResult) map[string]metric {
	p, tr, rp := &r.plain, &r.traced, &r.replay
	commits := float64(rp.counters["netstate.txn.commits"])
	rollbacks := float64(rp.counters["netstate.txn.rollbacks"])
	plainCs := p.chunks.stats()
	plainP50 := medianOver(plainCs, chunkP50)
	return map[string]metric{
		"server.parse_us":                    {median(tr.parseUs), "us"},
		"server.respond_us":                  {median(tr.respondUs), "us"},
		"server.http_overhead_us":            {median(tr.httpOverheadUs), "us"},
		"server.queue_wait_us_p99":           {quantile(tr.queueWaitUs, 0.99), "us"},
		"server.batch_wait_us":               {median(tr.batchWaitUs), "us"},
		"server.batch_size_mean":             {float64(tr.tally.decided()) / float64(tr.batches), "count"},
		"server.queue_high_water":            {float64(max(p.queueHW, tr.queueHW)), "count"},
		"sim.admit_us":                       {median(rp.admitUs), "us"},
		"sim.admit_us_p99":                   {quantile(rp.admitUs, 0.99), "us"},
		"sim.new_engine_ms":                  {median(rp.newEngineMs), "ms"},
		"topology.env_build_s":               {median(r.envS), "s"},
		"engine.search_us":                   {median(rp.searchUs), "us"},
		"core.slot_searches_per_req":         {rp.perReq("core.slot_searches"), "count"},
		"graph.heap_pops_per_req":            {rp.perReq("graph.dijkstra.heap_pops"), "count"},
		"graph.edge_relaxations_per_req":     {rp.perReq("graph.edge_relaxations"), "count"},
		"graph.pruned_labels_per_req":        {rp.perReq("graph.fastpath.pruned_labels"), "count"},
		"netstate.scratch_reuse_ratio":       {float64(rp.counters["netstate.scratch.reuses"]) / float64(rp.counters["core.slot_searches"]), "ratio"},
		"engine.pricing_us":                  {median(rp.pricingUs), "us"},
		"energy.deficit_walks_per_req":       {rp.perReq("energy.deficit_walks"), "count"},
		"pricing.lut_lookups_per_req":        {rp.perReq("pricing.lut_lookups"), "count"},
		"engine.commit_us":                   {median(rp.commitUs), "us"},
		"netstate.link_reservations_per_req": {rp.perReq("netstate.link.reservations"), "count"},
		"energy.consumptions_per_req":        {rp.perReq("energy.consumptions"), "count"},
		"netstate.trial_consumes_per_req":    {rp.perReq("netstate.trial_consumes"), "count"},
		"netstate.commit_ratio":              {commits / (commits + rollbacks), "ratio"},
		"obs.trace_overhead_pct":             {100 * (medianOver(tr.chunks.stats(), chunkP50) - plainP50) / plainP50, "%"},
		"loadgen.late_ms_p99":                {medianOver(plainCs, func(c chunkStats) float64 { return c.lateP99 }), "ms"},
	}
}

// summarize prints the run's sample counts and gate inputs ahead of
// the result line.
func (b *bench) summarize(r *runResult) {
	w := b.log
	p := &r.plain
	t := p.tally
	mode := "closed loop"
	if b.wl.slotsPerSec > 0 {
		mode = fmt.Sprintf("open loop at %g slots/s", b.wl.slotsPerSec)
	}
	fmt.Fprintf(w, "bookbench %s seed %d: %s, %d connection(s), %d passes, %.2f s sending\n",
		b.wl.name, b.seed, mode, b.wl.conns, p.passes, p.wall.Seconds())
	fmt.Fprintf(w, "  bookings sent %d: accepted %d, rejected %d (serving layer %d), failed %d (overloaded %d)\n",
		t.sent, t.accepted, t.rejected, t.servingRejects, t.failed, t.shed)
	cs := p.chunks.stats()
	fewest := p.chunks.samples
	for _, c := range cs {
		fewest = min(fewest, c.samples)
	}
	fmt.Fprintf(w, "  latency over %d decided bookings in %d chunks of at least %d (%d samples beyond each chunk's p99)\n",
		p.chunks.samples, len(cs), fewest, beyond(fewest, 0.99))
	fmt.Fprintf(w, "  set-up over %d repetitions: median %.4f s\n", len(r.setupS), median(r.setupS))
	if b.traced {
		tr := &r.traced
		fmt.Fprintf(w, "  traced: %d passes, %d bookings, %d audit records joined; replay %d admissions\n",
			tr.passes, tr.tally.sent, len(tr.queueWaitUs), len(r.replay.admitUs))
	}
}
