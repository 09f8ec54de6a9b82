package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"snd/client"
)

// TestPollTimerTimesEveryWaitPoll checks that each of client.Wait's polls
// lands in the op's reads, and that requests made without an op do not.
func TestPollTimerTimesEveryWaitPoll(t *testing.T) {
	var gets atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status := "running"
		if gets.Add(1) >= 3 {
			status = "done"
		}
		_ = json.NewEncoder(w).Encode(client.Job{ID: "j1", Status: status})
	}))
	defer srv.Close()
	cl := client.New(srv.URL, "")
	cl.HTTPClient.Transport = pollTimer{http.DefaultTransport}

	op := &serveOp{}
	job, err := cl.Wait(context.WithValue(context.Background(), pollOp{}, op), "j1", time.Millisecond)
	if err != nil || job.Status != "done" {
		t.Fatalf("Wait = %+v, %v", job, err)
	}
	if len(op.reads) != 3 {
		t.Errorf("%d polls timed, want 3", len(op.reads))
	}
	for i, r := range op.reads {
		if r <= 0 {
			t.Errorf("poll %d timed at %g ms", i, r)
		}
	}
	if _, err := cl.GetJob(context.Background(), "j1"); err != nil {
		t.Fatal(err)
	}
	if len(op.reads) != 3 {
		t.Errorf("a request without an op was timed into the op (%d reads)", len(op.reads))
	}
}
