package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"spacebooking/internal/obs"
	"spacebooking/internal/server"
)

// auditRec builds a decided, sampled audit record whose phases last
// parse, queue, admit and respond microseconds.
func auditRec(id, outcome string, parse, queue, admit, respond int64) server.AuditRecord {
	var spans []obs.TraceSpan
	at := int64(0)
	for _, p := range []struct {
		name string
		us   int64
	}{
		{server.PhaseIngressParse, parse},
		{server.PhaseQueueWait, queue},
		{server.PhaseBatchWait, 0},
		{server.PhaseEngineAdmit, admit},
		{server.PhaseRespond, respond},
	} {
		spans = append(spans, obs.TraceSpan{Name: p.name, StartNs: at, EndNs: at + p.us*1000})
		at += p.us * 1000
	}
	return server.AuditRecord{ClientID: id, Outcome: outcome, Sampled: true, Phases: spans}
}

func TestAuditJoinByClientRequestID(t *testing.T) {
	samples := []sample{
		{outcome: outAccepted, status: server.StatusAccepted, rtt: 500 * time.Microsecond},
		{outcome: outRejected, status: server.StatusRejected, rtt: 900 * time.Microsecond},
		{outcome: outFailed, status: statusTransport},
		{outcome: outFailed, status: server.StatusOverloaded},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	// Emission order differs from send order; the join keys on ids.
	for _, r := range []server.AuditRecord{
		auditRec(clientID(3, 1), server.StatusRejected, 20, 5, 600, 30),
		{ClientID: clientID(3, 3), Outcome: server.StatusOverloaded, Sampled: true},
		auditRec(clientID(3, 0), server.StatusAccepted, 10, 1, 300, 20),
	} {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := readAudit(&buf)
	if err != nil {
		t.Fatal(err)
	}
	js, err := joinAudit(recs, 3, samples)
	if err != nil {
		t.Fatal(err)
	}
	want := []joined{
		{parse: 10 * time.Microsecond, queueWait: time.Microsecond, admit: 300 * time.Microsecond, respond: 20 * time.Microsecond, rtt: 500 * time.Microsecond},
		{parse: 20 * time.Microsecond, queueWait: 5 * time.Microsecond, admit: 600 * time.Microsecond, respond: 30 * time.Microsecond, rtt: 900 * time.Microsecond},
	}
	if len(js) != len(want) {
		t.Fatalf("joined %d bookings, want %d", len(js), len(want))
	}
	for i := range want {
		if js[i] != want[i] {
			t.Errorf("joined[%d] = %+v, want %+v", i, js[i], want[i])
		}
	}
	if got := js[0].rtt - js[0].admit; got != 200*time.Microsecond {
		t.Errorf("http overhead = %v, want 200µs", got)
	}
}

func TestAuditJoinRejectsMismatches(t *testing.T) {
	samples := []sample{
		{outcome: outAccepted, status: server.StatusAccepted},
		{outcome: outRejected, status: server.StatusRejected},
	}
	ok0 := auditRec(clientID(0, 0), server.StatusAccepted, 1, 1, 1, 1)
	ok1 := auditRec(clientID(0, 1), server.StatusRejected, 1, 1, 1, 1)
	unsampled := ok1
	unsampled.Sampled, unsampled.Phases = false, nil
	for _, tc := range []struct {
		name string
		recs []server.AuditRecord
		want string
	}{
		{"missing", []server.AuditRecord{ok0}, "no audit record"},
		{"duplicate", []server.AuditRecord{ok0, ok1, ok0}, "duplicate"},
		{"outcome", []server.AuditRecord{ok0, auditRec(clientID(0, 1), server.StatusAccepted, 1, 1, 1, 1)}, "audit outcome"},
		{"unknown", []server.AuditRecord{ok0, ok1, auditRec(clientID(1, 0), server.StatusAccepted, 1, 1, 1, 1)}, "unknown request"},
		{"unsampled", []server.AuditRecord{ok0, unsampled}, "no phase timeline"},
	} {
		_, err := joinAudit(tc.recs, 0, samples)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: joinAudit error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestReadAuditReportsBadLine(t *testing.T) {
	_, err := readAudit(strings.NewReader("{\"id\":1}\n{not json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("readAudit error %v, want one naming line 2", err)
	}
}
