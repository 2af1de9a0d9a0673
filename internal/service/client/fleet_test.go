package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"misar/internal/service"
)

// ndjsonStub serves POST /v1/jobs with the given handler and counts hits.
func ndjsonStub(t *testing.T, handle func(w http.ResponseWriter, r *http.Request)) (*httptest.Server, *atomic.Uint64) {
	t.Helper()
	var hits atomic.Uint64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs" {
			http.NotFound(w, r)
			return
		}
		hits.Add(1)
		handle(w, r)
	}))
	t.Cleanup(hs.Close)
	return hs, &hits
}

// healthyStream emits accepted → done, the minimal successful job stream.
func healthyStream(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	fmt.Fprintln(w, `{"event":"accepted","job":"j-1"}`)
	fmt.Fprintln(w, `{"event":"done","job":"j-1","result":{"schema":1,"kind":"micro","label":"stub"}}`)
}

func fastPolicy() RetryPolicy {
	return RetryPolicy{
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     5 * time.Millisecond,
		AttemptTimeout: time.Second,
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"transport error", errors.New("dial tcp: connection refused"), true},
		{"429 backpressure", &APIError{Status: http.StatusTooManyRequests}, true},
		{"500", &APIError{Status: http.StatusInternalServerError}, true},
		{"503 draining", &APIError{Status: http.StatusServiceUnavailable}, true},
		{"400 bad request", &APIError{Status: http.StatusBadRequest}, false},
		{"404", &APIError{Status: http.StatusNotFound}, false},
		{"job ran and failed", &JobError{Job: "j-1", Message: "invariant violated"}, false},
		{"parent cancelled", context.Canceled, false},
		{"parent deadline", context.DeadlineExceeded, false},
		{"wrapped job error", fmt.Errorf("outer: %w", &JobError{Job: "j", Message: "m"}), false},
		{"watchdog timeout", fmt.Errorf("fleet: x: %w", errAttemptTimeout), true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("%s: Retryable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("7"); d != 7*time.Second {
		t.Errorf("delta-seconds: %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Errorf("absent: %v", d)
	}
	if d := parseRetryAfter("not a number"); d != 0 {
		t.Errorf("garbage: %v", d)
	}
	if d := parseRetryAfter("-3"); d != 0 {
		t.Errorf("negative: %v", d)
	}
	date := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(date); d < 8*time.Second || d > 10*time.Second {
		t.Errorf("http-date: %v", d)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(past); d != 0 {
		t.Errorf("past http-date: %v", d)
	}
}

// A dead first replica must cost one failed dial, not the job.
func TestFleetFailsOverOnConnectionError(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	alive, hits := ndjsonStub(t, healthyStream)

	f := NewFleet([]string{deadURL, alive.URL}, fastPolicy())
	// Force the rotation to start on the dead node: attempt both orders.
	var ok bool
	for i := 0; i < 2 && !ok; i++ {
		ev, err := f.Submit(context.Background(), service.JobRequest{App: "x"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ok = ev.Event == "done"
	}
	if !ok {
		t.Fatal("no done event")
	}
	if hits.Load() == 0 {
		t.Fatal("healthy replica never reached")
	}
}

// 429s fail over; the Retry-After duration floors the backoff.
func TestFleetRetriesBackpressure(t *testing.T) {
	busy, busyHits := ndjsonStub(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `{"error":"queue full"}`)
	})
	alive, aliveHits := ndjsonStub(t, healthyStream)

	f := NewFleet([]string{busy.URL, alive.URL}, fastPolicy())
	for i := 0; i < 2; i++ { // both rotation starts
		if _, err := f.Submit(context.Background(), service.JobRequest{App: "x"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if busyHits.Load() == 0 || aliveHits.Load() == 0 {
		t.Fatalf("hits: busy %d alive %d", busyHits.Load(), aliveHits.Load())
	}
}

// Deterministic failures must NOT fail over: a bad request is bad
// everywhere, and a job that ran and failed would fail identically on every
// replica (the simulator is deterministic).
func TestFleetDoesNotRetryPermanentErrors(t *testing.T) {
	rejecting, rejHits := ndjsonStub(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintln(w, `{"error":"unknown app"}`)
	})
	spare, spareHits := ndjsonStub(t, healthyStream)

	f := NewFleet([]string{rejecting.URL, spare.URL}, RetryPolicy{
		MaxAttempts: 4, BaseBackoff: time.Millisecond, AttemptTimeout: time.Second,
	})
	_, err := f.Submit(context.Background(), service.JobRequest{App: "nope"}, nil)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 APIError", err)
	}
	if rejHits.Load() != 1 || spareHits.Load() != 0 {
		t.Errorf("hits: rejecting %d (want 1), spare %d (want 0)", rejHits.Load(), spareHits.Load())
	}

	failing, failHits := ndjsonStub(t, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"event":"accepted","job":"j-9"}`)
		fmt.Fprintln(w, `{"event":"error","job":"j-9","error":"deadlock detected"}`)
	})
	f2 := NewFleet([]string{failing.URL, spare.URL}, RetryPolicy{
		MaxAttempts: 4, BaseBackoff: time.Millisecond, AttemptTimeout: time.Second,
	})
	_, err = f2.Submit(context.Background(), service.JobRequest{App: "x"}, nil)
	var je *JobError
	if !errors.As(err, &je) || je.Message != "deadlock detected" {
		t.Fatalf("err = %v, want JobError", err)
	}
	if failHits.Load() != 1 || spareHits.Load() != 0 {
		t.Errorf("hits: failing %d (want 1), spare %d (want 0)", failHits.Load(), spareHits.Load())
	}
}

// A stream that goes silent (a SIGKILLed node's socket lingers) must be
// abandoned by the activity watchdog and the job finished elsewhere.
func TestFleetWatchdogAbandonsSilentStream(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	silent, silentHits := ndjsonStub(t, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"event":"accepted","job":"j-1"}`)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-hang // no heartbeats, no terminal event
	})
	alive, aliveHits := ndjsonStub(t, healthyStream)

	f := NewFleet([]string{silent.URL, alive.URL}, RetryPolicy{
		MaxAttempts:    3,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     5 * time.Millisecond,
		AttemptTimeout: 100 * time.Millisecond,
	})
	start := time.Now()
	for i := 0; i < 2; i++ { // both rotation starts
		if _, err := f.Submit(context.Background(), service.JobRequest{App: "x"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("watchdog took %v, expected ~attempt timeout", elapsed)
	}
	if silentHits.Load() == 0 || aliveHits.Load() == 0 {
		t.Fatalf("hits: silent %d alive %d", silentHits.Load(), aliveHits.Load())
	}
}

// Parent-context cancellation wins over retries immediately.
func TestFleetStopsOnParentCancel(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()

	f := NewFleet([]string{deadURL}, RetryPolicy{
		MaxAttempts: 100, BaseBackoff: 50 * time.Millisecond, AttemptTimeout: time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.Submit(ctx, service.JobRequest{App: "x"}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}
