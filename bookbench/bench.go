package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spacebooking"
	"spacebooking/internal/server"
	"spacebooking/internal/sim"
	"spacebooking/internal/workload"
)

const (
	// setupReps is how many times a run builds the environment and a
	// daemon; setup_s is their median.
	setupReps = 9
	// streamsPerRun is how many distinct streams a run's passes cycle
	// through, so the exactness gate runs sim.Run, and the traced run
	// its in-process replay, once per stream.
	streamsPerRun = 4
	// passDeadline stops a run from starting passes this long after
	// its first, so the command ends well inside its time limit.
	passDeadline = 100 * time.Second
	// acceptLow and acceptHigh bound the calibrated operating point: out
	// of this acceptance band admission is not what binds, and the run
	// measures something else.
	acceptLow, acceptHigh = 0.45, 0.65
)

// bench is one run of one workload.
type bench struct {
	wl      workloadDef
	seed    int64
	seconds float64
	traced  bool
	workDir string
	log     io.Writer

	// violations are failed gates; any makes the run incorrect.
	violations []string
}

func (b *bench) violate(format string, args ...any) {
	b.violations = append(b.violations, fmt.Sprintf(format, args...))
}

// servedAgg pools the client and server figures of served passes.
type servedAgg struct {
	passes   int
	wall     time.Duration
	tally    tally
	sloOK    int
	chunks   chunker
	heapMB   []float64
	queueHW  int64
	batches  int64
	accVal   float64
	totalVal float64

	// Audit-joined phases (traced passes only), in microseconds.
	parseUs, respondUs, queueWaitUs, batchWaitUs, httpOverheadUs []float64
}

// setup builds the environment and a daemon over it setupReps times,
// as spaced does at start-up, and returns the last environment with
// the per-repetition set-up and environment-build times in seconds.
func (b *bench) setup() (*spacebooking.Environment, []float64, []float64, error) {
	var env *spacebooking.Environment
	var setupS, envS []float64
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		e, err := spacebooking.NewEnvironment(spacebooking.EnvConfig{Scale: b.wl.scale})
		if err != nil {
			return nil, nil, nil, err
		}
		tEnv := time.Since(t0)
		d, err := startDaemon(e, b.seed, server.TraceConfig{})
		if err != nil {
			return nil, nil, nil, err
		}
		tAll := time.Since(t0)
		if _, _, err := d.stop(); err != nil {
			return nil, nil, nil, err
		}
		env = e
		setupS = append(setupS, tAll.Seconds())
		envS = append(envS, tEnv.Seconds())
	}
	return env, setupS, envS, nil
}

// servePass serves one stream on a fresh daemon over env, then checks
// that the server's counters reconcile with what the client saw.
func (b *bench) servePass(env *spacebooking.Environment, stream []booking, seed int64, pass int, traced bool, agg *servedAgg) (*sim.Result, error) {
	bodies, err := encodeBookings(stream, pass)
	if err != nil {
		return nil, err
	}
	var tc server.TraceConfig
	var auditPath string
	if traced {
		auditPath = filepath.Join(b.workDir, fmt.Sprintf("audit-%s-%d.jsonl", b.wl.name, pass))
		tc = server.TraceConfig{
			SampleRate:    1,
			SlowThreshold: sloObjective,
			AuditPath:     auditPath,
			// One slot per booking: the ring can then never drop.
			RingDepth: len(stream) + 1,
		}
	}
	d, err := startDaemon(env, seed, tc)
	if err != nil {
		return nil, err
	}
	samples, wall := drive(context.Background(), d.url+"/v1/book", b.wl.conns, b.wl.slotsPerSec, stream, bodies)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res, st, err := d.stop()
	if err != nil {
		return nil, err
	}

	t := tallyOf(samples)
	b.reconcile(pass, traced, t, res, st)
	agg.passes++
	agg.wall += wall
	agg.tally.add(t)
	agg.heapMB = append(agg.heapMB, float64(ms.HeapAlloc)/1e6)
	agg.queueHW = max(agg.queueHW, st.QueueHighWater)
	agg.batches += d.reg.Counter("server.batches").Value()
	agg.accVal += res.AcceptedValuation
	agg.totalVal += res.TotalValuation
	var latMs, lateMs []float64
	for _, s := range samples {
		lateMs = append(lateMs, ms64(s.late))
		if s.outcome == outFailed {
			continue
		}
		latMs = append(latMs, ms64(s.latency))
		if s.latency <= sloObjective {
			agg.sloOK++
		}
	}
	agg.chunks.add(latMs, lateMs, wall.Seconds(), t.decided())

	if traced {
		if st.Trace == nil || st.Trace.Dropped != 0 {
			b.violate("pass %d: traced daemon dropped audit records (%+v)", pass, st.Trace)
		}
		f, err := os.Open(auditPath)
		if err != nil {
			return nil, err
		}
		recs, err := readAudit(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		if err := os.Remove(auditPath); err != nil {
			return nil, err
		}
		js, err := joinAudit(recs, pass, samples)
		if err != nil {
			b.violate("pass %d: audit join: %v", pass, err)
		}
		for _, j := range js {
			agg.parseUs = append(agg.parseUs, us64(j.parse))
			agg.respondUs = append(agg.respondUs, us64(j.respond))
			agg.queueWaitUs = append(agg.queueWaitUs, us64(j.queueWait))
			agg.batchWaitUs = append(agg.batchWaitUs, us64(j.batchWait))
			agg.httpOverheadUs = append(agg.httpOverheadUs, us64(j.rtt-j.admit))
		}
	}
	return res, nil
}

// reconcile checks one pass's server totals against the client's
// counts: every decided booking counted once, accepted counts equal,
// and the engine saw every decided booking the serving layer did not
// reject itself.
func (b *bench) reconcile(pass int, traced bool, t tally, res *sim.Result, st server.Stats) {
	where := fmt.Sprintf("pass %d (traced=%v)", pass, traced)
	if st.Total != int64(t.decided()) || st.Accepted != int64(t.accepted) || st.Rejected != int64(t.rejected) {
		b.violate("%s: server stats total/accepted/rejected %d/%d/%d, client %d/%d/%d",
			where, st.Total, st.Accepted, st.Rejected, t.decided(), t.accepted, t.rejected)
	}
	if st.Shed != int64(t.shed) {
		b.violate("%s: server shed %d, client saw %d overloaded", where, st.Shed, t.shed)
	}
	if res.Accepted != t.accepted || res.TotalRequests != t.decided()-t.servingRejects {
		b.violate("%s: engine result accepted/total %d/%d, client %d/%d",
			where, res.Accepted, res.TotalRequests, t.accepted, t.decided()-t.servingRejects)
	}
	if t.horizonExhausted > 0 {
		b.violate("%s: %d bookings answered %s", where, t.horizonExhausted, server.ReasonHorizonExhausted)
	}
}

// checkExact requires a served result to equal the reference run on
// the identical stream.
func (b *bench) checkExact(what string, pass int, got, want *sim.Result) {
	if got.Accepted != want.Accepted || got.TotalRequests != want.TotalRequests ||
		got.Revenue != want.Revenue || got.AcceptedValuation != want.AcceptedValuation ||
		got.WelfareRatio != want.WelfareRatio {
		b.violate("pass %d: %s result (accepted %d/%d, revenue %v, welfare %v) differs from sim.Run (accepted %d/%d, revenue %v, welfare %v)",
			pass, what, got.Accepted, got.TotalRequests, got.Revenue, got.WelfareRatio,
			want.Accepted, want.TotalRequests, want.Revenue, want.WelfareRatio)
	}
}

// simRun is the batch simulator on the identical stream.
func simRun(env *spacebooking.Environment, stream []booking, seed int64) (*sim.Result, error) {
	rc, err := runConfig(env, seed)
	if err != nil {
		return nil, err
	}
	reqs := make([]workload.Request, len(stream))
	for i, b := range stream {
		reqs[i] = b.req
	}
	rc.Source = workload.NewSliceSource(reqs)
	return sim.Run(env.Provider, rc)
}

// runResult is everything a run measured.
type runResult struct {
	setupS, envS []float64
	plain        servedAgg
	traced       servedAgg
	replay       replayAgg
}

// enough reports whether the run has measured for its duration and has
// the samples every reported tail percentile needs.
func (b *bench) enough(r *runResult) bool {
	timed := r.plain.wall + r.traced.wall
	if timed.Seconds() < b.seconds || !supported(r.plain.chunks.samples, 0.99) {
		return false
	}
	if !b.traced {
		return true
	}
	return supported(r.traced.chunks.samples, 0.99) &&
		supported(len(r.traced.queueWaitUs), 0.99) &&
		supported(len(r.replay.admitUs), 0.99)
}

// run executes the workload: set-up, then passes until enough.
func (b *bench) run() (*runResult, error) {
	r := &runResult{}
	env, setupS, envS, err := b.setup()
	if err != nil {
		return nil, err
	}
	r.setupS, r.envS = setupS, envS
	streams := make([][]booking, streamsPerRun)
	refs := make([]*sim.Result, streamsPerRun)
	start := time.Now()
	for pass := 0; !b.enough(r); pass++ {
		if time.Since(start) > passDeadline {
			b.violate("stopped after %d passes at the %v deadline without enough samples", pass, passDeadline)
			break
		}
		k := pass % streamsPerRun
		seed := passSeed(b.seed, k)
		if streams[k] == nil {
			if streams[k], err = b.wl.stream(env, seed); err != nil {
				return nil, err
			}
		}
		stream := streams[k]
		served, err := b.servePass(env, stream, seed, pass, false, &r.plain)
		if err != nil {
			return nil, err
		}
		var tracedRes, replayRes *sim.Result
		if b.traced {
			if tracedRes, err = b.servePass(env, stream, seed, pass, true, &r.traced); err != nil {
				return nil, err
			}
			if pass < streamsPerRun {
				if replayRes, err = r.replay.replay(env, stream, seed); err != nil {
					return nil, err
				}
			}
		}
		if b.wl.exact {
			if refs[k] == nil {
				if refs[k], err = simRun(env, stream, seed); err != nil {
					return nil, err
				}
			}
			want := refs[k]
			b.checkExact("served", pass, served, want)
			if b.traced {
				b.checkExact("traced served", pass, tracedRes, want)
			}
			if replayRes != nil {
				b.checkExact("in-process replay", pass, replayRes, want)
			}
		}
	}
	b.checkOperatingPoint(r.plain.tally)
	return r, nil
}

// checkOperatingPoint requires the run's acceptance to sit in the
// calibrated band.
func (b *bench) checkOperatingPoint(t tally) {
	if t.decided() == 0 {
		b.violate("no booking was decided")
	} else if acc := float64(t.accepted) / float64(t.decided()); acc < acceptLow || acc > acceptHigh {
		b.violate("accept ratio %.4f outside the calibrated band [%.2f, %.2f]", acc, acceptLow, acceptHigh)
	}
}

func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us64(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
