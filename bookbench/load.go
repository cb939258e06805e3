package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"spacebooking/internal/server"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// booking is one generated request with its continuous arrival instant
// in slot units (req.ArrivalSlot == floor(at)); open loops send it at
// at / slotsPerSec seconds after the pass starts.
type booking struct {
	req workload.Request
	at  float64
}

// outcome classifies one /v1/book exchange from the client's side.
type outcome int

const (
	// outAccepted and outRejected are answers: the booking was decided.
	// A rejection by the engine ("no-path", "priced-out", ...) or by the
	// serving layer ("expired", "horizon-exhausted") is the mechanism
	// working, not a failure.
	outAccepted outcome = iota
	outRejected
	// outFailed is no decision: a transport error, an HTTP 5xx or
	// "error" status, or a refusal ("overloaded", "draining").
	outFailed
)

// statusTransport labels a sample whose exchange never produced an
// HTTP response.
const statusTransport = "transport"

// classify maps one exchange to an outcome and the status it counts
// under.
func classify(code int, resp server.BookResponse, err error) (outcome, string) {
	switch {
	case err != nil:
		return outFailed, statusTransport
	case code == http.StatusOK && resp.Status == server.StatusAccepted:
		return outAccepted, resp.Status
	case code == http.StatusOK && resp.Status == server.StatusRejected:
		return outRejected, resp.Status
	case resp.Status != "":
		return outFailed, resp.Status
	default:
		return outFailed, fmt.Sprintf("http-%d", code)
	}
}

// sample is the client's record of one booking.
type sample struct {
	outcome outcome
	status  string
	reason  string
	// latency runs to the decided response from the send (closed loop)
	// or from the due time (open loop), so a stall also charges the
	// requests queued behind it.
	latency time.Duration
	// rtt is send to response, the span the server's audit phases
	// subdivide.
	rtt time.Duration
	// late is how long after its due time the booking was sent.
	late time.Duration
}

// dueOffset maps an arrival instant in slot units to its send offset
// from the start of an open-loop pass paced at slotsPerSec.
func dueOffset(at, slotsPerSec float64) time.Duration {
	return time.Duration(at / slotsPerSec * float64(time.Second))
}

// endpointRef is the wire form of a topology endpoint.
func endpointRef(e topology.Endpoint) server.EndpointRef {
	if e.Kind == topology.EndpointSpace {
		return server.EndpointRef{Kind: "space", Index: e.Index}
	}
	return server.EndpointRef{Kind: "ground", Index: e.Index}
}

// clientID is the request_id of the i-th booking of a pass; the audit
// join keys on it.
func clientID(pass, i int) string { return fmt.Sprintf("p%d-%d", pass, i) }

// encodeBookings renders every booking's POST body up front, so the
// timed loop spends no time encoding. Each body pins the arrival,
// start and end slots, which drives the daemon's arrival-driven clock.
func encodeBookings(bookings []booking, pass int) ([][]byte, error) {
	bodies := make([][]byte, len(bookings))
	for i, b := range bookings {
		r := b.req
		arrival, start, end := r.ArrivalSlot, r.StartSlot, r.EndSlot
		body, err := json.Marshal(server.BookRequest{
			Src:         endpointRef(r.Src),
			Dst:         endpointRef(r.Dst),
			RateMbps:    r.RateMbps,
			Valuation:   r.Valuation,
			ArrivalSlot: &arrival,
			StartSlot:   &start,
			EndSlot:     &end,
			RequestID:   clientID(pass, i),
		})
		if err != nil {
			return nil, fmt.Errorf("encode booking %d: %w", i, err)
		}
		bodies[i] = body
	}
	return bodies, nil
}

// drive sends every body to url over conns keep-alive connections and
// returns one sample per body plus the wall time spent sending. With
// slotsPerSec 0 each connection is a closed loop; otherwise booking i
// is due at dueOffset(bookings[i].at, slotsPerSec) and each connection
// takes the next due booking once it is free.
func drive(ctx context.Context, url string, conns int, slotsPerSec float64, bookings []booking, bodies [][]byte) ([]sample, time.Duration) {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	samples := make([]sample, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := start
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				if slotsPerSec > 0 {
					due = start.Add(dueOffset(bookings[i].at, slotsPerSec))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				send := time.Now()
				code, resp, err := post(ctx, client, url, bodies[i])
				done := time.Now()
				s := &samples[i]
				s.outcome, s.status = classify(code, resp, err)
				if resp.Reservation != nil {
					s.reason = resp.Reservation.Reason
				}
				s.rtt = done.Sub(send)
				s.late = send.Sub(due)
				s.latency = s.rtt
				if slotsPerSec > 0 {
					s.latency = done.Sub(due)
				} else {
					due = done
				}
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// post makes one booking exchange.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, server.BookResponse, error) {
	var br server.BookResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, br, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, br, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, br, err
	}
	if err := json.Unmarshal(data, &br); err != nil {
		return resp.StatusCode, br, fmt.Errorf("decode booking response: %w", err)
	}
	return resp.StatusCode, br, nil
}

// tally counts a pass's samples by outcome.
type tally struct {
	sent, accepted, rejected, failed int
	// shed counts "overloaded" refusals, which the server counts too.
	shed int
	// servingRejects counts rejections the serving layer made without
	// consulting the engine ("expired", "horizon-exhausted").
	servingRejects int
	// horizonExhausted is a pinning bug: every booking's arrival slot
	// lies inside the horizon.
	horizonExhausted int
}

func tallyOf(samples []sample) tally {
	var t tally
	for _, s := range samples {
		t.sent++
		switch s.outcome {
		case outAccepted:
			t.accepted++
		case outRejected:
			t.rejected++
			switch s.reason {
			case server.ReasonHorizonExhausted:
				t.horizonExhausted++
				t.servingRejects++
			case server.ReasonExpired:
				t.servingRejects++
			}
		default:
			t.failed++
			if s.status == server.StatusOverloaded {
				t.shed++
			}
		}
	}
	return t
}

func (t *tally) add(o tally) {
	t.sent += o.sent
	t.accepted += o.accepted
	t.rejected += o.rejected
	t.failed += o.failed
	t.shed += o.shed
	t.servingRejects += o.servingRejects
	t.horizonExhausted += o.horizonExhausted
}

func (t tally) decided() int { return t.accepted + t.rejected }
