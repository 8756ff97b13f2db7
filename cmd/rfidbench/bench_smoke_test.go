package main

import (
	"testing"

	"repro/internal/wal"
)

// TestDurableBenchSmoke runs the durability-overhead comparison at a tiny
// scale: the durable run must write WAL records and checkpoints and still
// produce the exact event stream of the in-memory run.
func TestDurableBenchSmoke(t *testing.T) {
	res, err := runDurableBench(6, 1, 1, wal.SyncNever, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EventsIdentical {
		t.Fatal("durable run output diverged from the in-memory run")
	}
	if res.WALRecords <= 0 || res.WALBytes <= 0 || res.Checkpoints <= 0 {
		t.Fatalf("durable run wrote nothing: %+v", res)
	}
	if res.PlainMs <= 0 || res.DurableMs <= 0 {
		t.Fatalf("empty timing record: %+v", res)
	}
	printDurableResult(res)
}
