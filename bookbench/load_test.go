package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"spacebooking/internal/server"
)

func TestDueOffsetMapsArrivalTime(t *testing.T) {
	for _, tc := range []struct {
		at, slotsPerSec float64
		want            time.Duration
	}{
		{0, 48, 0},
		{48, 48, time.Second},
		{1.5, 48, 31250 * time.Microsecond},
		{191.9, 10, 19190 * time.Millisecond},
	} {
		if got := dueOffset(tc.at, tc.slotsPerSec); got != tc.want {
			t.Errorf("dueOffset(%v, %v) = %v, want %v", tc.at, tc.slotsPerSec, got, tc.want)
		}
	}
}

func TestClassify(t *testing.T) {
	rejected := func(reason string) server.BookResponse {
		return server.BookResponse{Status: server.StatusRejected, Reservation: &server.Reservation{Reason: reason}}
	}
	for _, tc := range []struct {
		name   string
		code   int
		resp   server.BookResponse
		err    error
		want   outcome
		status string
	}{
		{"accepted", 200, server.BookResponse{Status: server.StatusAccepted}, nil, outAccepted, server.StatusAccepted},
		{"engine rejection", 200, rejected("no-path"), nil, outRejected, server.StatusRejected},
		{"expired is a rejection", 200, rejected(server.ReasonExpired), nil, outRejected, server.StatusRejected},
		{"horizon-exhausted is a rejection", 200, rejected(server.ReasonHorizonExhausted), nil, outRejected, server.StatusRejected},
		{"overloaded", 429, server.BookResponse{Status: server.StatusOverloaded}, nil, outFailed, server.StatusOverloaded},
		{"draining", 503, server.BookResponse{Status: server.StatusDraining}, nil, outFailed, server.StatusDraining},
		{"engine error", 500, server.BookResponse{Status: server.StatusError}, nil, outFailed, server.StatusError},
		{"5xx without body", 502, server.BookResponse{}, nil, outFailed, "http-502"},
		{"bad request", 400, server.BookResponse{}, nil, outFailed, "http-400"},
		{"client gave up", 202, server.BookResponse{Status: server.StatusQueued}, nil, outFailed, server.StatusQueued},
		{"transport", 0, server.BookResponse{}, errors.New("connection refused"), outFailed, statusTransport},
	} {
		got, status := classify(tc.code, tc.resp, tc.err)
		if got != tc.want || status != tc.status {
			t.Errorf("%s: classify = (%v, %q), want (%v, %q)", tc.name, got, status, tc.want, tc.status)
		}
	}
}

func TestTallyCountsServingRejections(t *testing.T) {
	samples := []sample{
		{outcome: outAccepted, status: server.StatusAccepted},
		{outcome: outRejected, status: server.StatusRejected, reason: "priced-out"},
		{outcome: outRejected, status: server.StatusRejected, reason: server.ReasonExpired},
		{outcome: outRejected, status: server.StatusRejected, reason: server.ReasonHorizonExhausted},
		{outcome: outFailed, status: server.StatusOverloaded},
		{outcome: outFailed, status: statusTransport},
	}
	got := tallyOf(samples)
	want := tally{sent: 6, accepted: 1, rejected: 3, failed: 2, shed: 1, servingRejects: 2, horizonExhausted: 1}
	if got != want {
		t.Errorf("tallyOf = %+v, want %+v", got, want)
	}
	if got.decided() != 4 {
		t.Errorf("decided = %d, want 4", got.decided())
	}
}

// In an open loop a stall charges the bookings due behind it: they are
// sent late, and their latency runs from the due time, not the send.
func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"status":"accepted"}`))
	}))
	defer srv.Close()

	// Three bookings due 0, 1 and 2 ms into the pass over one connection.
	const slotsPerSec = 1000
	bookings := []booking{{at: 0}, {at: 1}, {at: 2}}
	bodies := [][]byte{[]byte("{}"), []byte("{}"), []byte("{}")}
	samples, wall := drive(context.Background(), srv.URL, 1, slotsPerSec, bookings, bodies)
	if wall < stall {
		t.Fatalf("wall %v shorter than the stall %v", wall, stall)
	}
	for i, s := range samples {
		if s.outcome != outAccepted {
			t.Fatalf("booking %d: outcome %v (%s)", i, s.outcome, s.status)
		}
		if s.late < 0 || s.latency != s.rtt+s.late {
			t.Errorf("booking %d: latency %v, rtt %v, late %v: want latency = lateness + round trip", i, s.latency, s.rtt, s.late)
		}
	}
	for i := 1; i < len(samples); i++ {
		// Sent only after the stalled first booking returned.
		if floor := stall - dueOffset(bookings[i].at, slotsPerSec); samples[i].late < floor {
			t.Errorf("booking %d: late %v, want at least %v behind the stall", i, samples[i].late, floor)
		}
	}
}

// A closed loop sends on completion, so its latency is the round trip.
func TestClosedLoopLatencyIsRoundTrip(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"rejected","reservation":{"id":1,"status":"rejected","reason":"no-path"}}`))
	}))
	defer srv.Close()
	bodies := [][]byte{[]byte("{}"), []byte("{}"), []byte("{}"), []byte("{}")}
	samples, _ := drive(context.Background(), srv.URL, 2, 0, make([]booking, len(bodies)), bodies)
	for i, s := range samples {
		if s.outcome != outRejected || s.reason != "no-path" {
			t.Errorf("booking %d: outcome %v reason %q, want rejected no-path", i, s.outcome, s.reason)
		}
		if s.latency != s.rtt {
			t.Errorf("booking %d: latency %v != rtt %v", i, s.latency, s.rtt)
		}
	}
}
