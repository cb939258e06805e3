package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"spacebooking"
	"spacebooking/internal/obs"
	"spacebooking/internal/server"
	"spacebooking/internal/sim"
)

// spaced's defaults, which the benchmark serves with. The SLO latency
// objective doubles as the slo_ok_ratio threshold.
const (
	hotspotK     = 32
	queueDepth   = 256
	batchSize    = 32
	sloObjective = 25 * time.Millisecond
)

// daemon is one in-process spaced: the booking server behind the obs
// debug mux on a loopback listener, built through the same public
// constructors cmd/spaced uses.
type daemon struct {
	srv      *server.Server
	reg      *obs.Registry
	http     *http.Server
	url      string
	serveErr chan error
}

// runConfig is spaced's CEAR run configuration over env with the
// workload seeded by seed (the workload only configures the algorithm;
// bookings arrive over HTTP).
func runConfig(env *spacebooking.Environment, seed int64) (sim.RunConfig, error) {
	return env.RunConfig(sim.AlgCEAR, env.WorkloadConfig(env.DefaultArrivalRate(), seed))
}

// startDaemon builds and starts a fresh server over env and returns
// once the listener answers /healthz.
func startDaemon(env *spacebooking.Environment, seed int64, tc server.TraceConfig) (*daemon, error) {
	rc, err := runConfig(env, seed)
	if err != nil {
		return nil, err
	}
	reg := obs.New()
	rc.Obs = reg
	rc.HotspotK = hotspotK
	srv, err := server.New(server.Config{
		Provider:   env.Provider,
		Run:        rc,
		ClockRate:  0,
		QueueDepth: queueDepth,
		BatchSize:  batchSize,
		Shards:     1,
		Trace:      tc,
		SLO:        server.SLOConfig{LatencyObjective: sloObjective},
	})
	if err != nil {
		return nil, err
	}
	mux := obs.NewDebugMux(reg)
	srv.Register(mux)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{
		srv:      srv,
		reg:      reg,
		http:     &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		url:      "http://" + lis.Addr().String(),
		serveErr: make(chan error, 1),
	}
	go func() { d.serveErr <- d.http.Serve(lis) }()
	if err := d.healthy(); err != nil {
		_, _, _ = d.stop()
		return nil, err
	}
	return d, nil
}

// healthy makes one /healthz round trip.
func (d *daemon) healthy() error {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	resp, err := client.Get(d.url + "/healthz")
	if err != nil {
		return fmt.Errorf("daemon health check: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("daemon health check: HTTP %d", resp.StatusCode)
	}
	return nil
}

// stop drains the server the way spaced does on SIGTERM, stops the
// listener, waits for the serve goroutine, and returns the final
// result and counters.
func (d *daemon) stop() (*sim.Result, server.Stats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := d.srv.Shutdown(ctx)
	httpErr := d.http.Shutdown(ctx)
	serveErr := <-d.serveErr
	if errors.Is(serveErr, http.ErrServerClosed) {
		serveErr = nil
	}
	if err := errors.Join(drainErr, httpErr, serveErr); err != nil {
		return nil, server.Stats{}, fmt.Errorf("daemon stop: %w", err)
	}
	res, err := d.srv.Result()
	if err != nil {
		return nil, server.Stats{}, err
	}
	return res, d.srv.StatsSnapshot(), nil
}
