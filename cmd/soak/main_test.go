package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSoakInProcess runs a short soak against the in-process server — 200
// clients over 2 connections for half a second — and checks the report it
// writes: work was done, nothing failed, the volume stayed healthy, and the
// report names its clock.
func TestSoakInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("half-second soak")
	}
	path := filepath.Join(t.TempDir(), "server.json")
	mix := "read=40,write=20,create=15,stat=10,list=5,delete=5,force=3,wait=2"
	if err := run("", 200, 2, 500*time.Millisecond, 20, mix, 1, true, path); err != nil {
		t.Fatalf("soak: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.Errors != 0 || res.ProtocolErrors != 0 {
		t.Fatalf("errors %d, protocol errors %d: %v", res.Errors, res.ProtocolErrors, res.ErrorSamples)
	}
	if res.VolumeHealth != "healthy" {
		t.Fatalf("volume health %q: %s", res.VolumeHealth, res.VolumeHealthReason)
	}
	if res.Clock == "" {
		t.Fatalf("report has no clock key: %s", raw)
	}
}
