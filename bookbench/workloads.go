package main

import (
	"embed"
	"fmt"
	"sort"

	"spacebooking"
	"spacebooking/internal/scenario"
	"spacebooking/internal/workload"
)

//go:embed specs/*.json
var specFiles embed.FS

// workloadDef is one named traffic mix. Every workload runs CEAR on
// spaced's defaults; they differ in scale, arrival process and loop.
type workloadDef struct {
	name  string
	scale spacebooking.Scale
	// conns is the number of client connections (at most 2: the
	// generator shares the machine with the daemon).
	conns int
	// slotsPerSec paces an open loop: a booking arriving at slot
	// instant t is due t/slotsPerSec seconds into the pass. Zero makes
	// each connection a closed loop.
	slotsPerSec float64
	// exact requires the served Result to equal sim.Run on the same
	// stream. Only a single closed-loop connection preserves arrival
	// order, which the equality needs.
	exact bool
	// stream generates one pass's bookings, a full topology horizon,
	// from the pass seed.
	stream func(env *spacebooking.Environment, seed int64) ([]booking, error)
}

// workloads are the named workloads; README.md records why each exists.
var workloads = map[string]workloadDef{
	// Engine-bound: the paper's Poisson mix at medium scale, where one
	// admission costs milliseconds and energy pricing dominates it.
	"paper-medium": {
		name:   "paper-medium",
		scale:  spacebooking.ScaleMedium,
		conns:  1,
		exact:  true,
		stream: paperStream,
	},
	// Server-bound: short bookings at small scale, where admission is
	// cheap and HTTP, JSON, queue and respond dominate latency.
	"interactive-small": {
		name:   "interactive-small",
		scale:  spacebooking.ScaleSmall,
		conns:  2,
		stream: specStream("interactive-small.json"),
	},
	// Queue-bound: bursty Weibull arrivals in an open loop at medium
	// scale, so bookings wait in the ingress queue behind expensive
	// admissions and the tail is set by queue.wait.
	"bursty-medium": {
		name:        "bursty-medium",
		scale:       spacebooking.ScaleMedium,
		conns:       2,
		slotsPerSec: 32,
		stream:      specStream("bursty-medium.json"),
	},
}

// workloadNames returns the workload names, sorted.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// paperStream is the paper's workload over the environment at its
// default rate (4/min at medium scale). The generator draws whole slots,
// so each booking's arrival instant is its slot's start.
func paperStream(env *spacebooking.Environment, seed int64) ([]booking, error) {
	reqs, err := workload.Generate(env.WorkloadConfig(env.DefaultArrivalRate(), seed))
	if err != nil {
		return nil, err
	}
	out := make([]booking, len(reqs))
	for i, r := range reqs {
		out[i] = booking{req: r, at: float64(r.ArrivalSlot)}
	}
	return out, nil
}

// specStream returns a generator for an embedded scenario spec, reseeded
// per pass and bound to the environment's pairs and horizon.
func specStream(file string) func(*spacebooking.Environment, int64) ([]booking, error) {
	return func(env *spacebooking.Environment, seed int64) ([]booking, error) {
		data, err := specFiles.ReadFile("specs/" + file)
		if err != nil {
			return nil, err
		}
		spec, err := scenario.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("spec %s: %w", file, err)
		}
		spec.Seed = seed
		gen, err := scenario.NewGenerator(spec, env.ScenarioBinding())
		if err != nil {
			return nil, fmt.Errorf("spec %s: %w", file, err)
		}
		var out []booking
		for {
			a, ok := gen.NextArrival()
			if !ok {
				return out, nil
			}
			out = append(out, booking{req: a.Req, at: a.Time})
		}
	}
}

// passSeed derives the seed of pass i from the workload seed
// (splitmix64), so passes of one run differ and runs with different
// workload seeds share no pass.
func passSeed(seed int64, pass int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(pass+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
