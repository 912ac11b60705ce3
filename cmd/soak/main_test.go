package main

import (
	"encoding/json"
	"errors"
	"hash/crc32"
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

// TestSoakFileCheck: a client's record of a file fails a read of other
// bytes or another size, and passes what it wrote.
func TestSoakFileCheck(t *testing.T) {
	f := soakFile{name: "soak/c0/f0", size: 3, crc: crc32.ChecksumIEEE([]byte("abc"))}
	if err := f.check(3, []byte("abc")); err != nil {
		t.Fatalf("what was written: %v", err)
	}
	if err := f.check(3, nil); err != nil {
		t.Fatalf("the size alone: %v", err)
	}
	for _, err := range []error{f.check(3, []byte("abd")), f.check(2, []byte("ab")), f.check(4, nil)} {
		if !errors.Is(err, errDiffers) {
			t.Fatalf("a file that differs from what was written: %v", err)
		}
	}
}
