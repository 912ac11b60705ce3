package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/wal"
)

// TestLogdumpNamesTheRecords: format, populate with a force every ten creates,
// crash — and logdump, read-only, lists exactly the records wal.Inspect finds
// in the image, with their name-table and leader targets under -v.
func TestLogdumpNamesTheRecords(t *testing.T) {
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, sim.NewVirtualClock())
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.Format(d, core.Config{LogSectors: 4 + 3*200, NTPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := v.Create(fmt.Sprintf("dump/f%02d", i), bytes.Repeat([]byte{byte(i)}, 300+i*40)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := v.Force(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// An empty file has no data write for its leader to ride: it is logged.
	if _, err := v.Create("dump/empty", nil); err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	v.Crash()
	d.Revive()
	img := filepath.Join(t.TempDir(), "vol.img")
	if err := d.SaveImage(img); err != nil {
		t.Fatal(err)
	}
	base, size, err := core.LogRegionOf(d)
	if err != nil {
		t.Fatal(err)
	}
	info, err := wal.Inspect(d, base, size, wal.Config{})
	if err != nil || len(info.Records) == 0 {
		t.Fatalf("the crashed image holds %d log records (%v); the test needs some", len(info.Records), err)
	}

	var buf bytes.Buffer
	if err := run(&buf, img, true); err != nil {
		t.Fatalf("logdump: %v", err)
	}
	out := buf.Bytes()
	if want := fmt.Sprintf("%d valid records:", len(info.Records)); !bytes.Contains(out, []byte(want)) {
		t.Fatalf("output lacks %q:\n%s", want, out)
	}
	listed := regexp.MustCompile(`(?m)^  rec +(\d+) @`).FindAllSubmatch(out, -1)
	if len(listed) != len(info.Records) {
		t.Fatalf("%d record lines for %d records:\n%s", len(listed), len(info.Records), out)
	}
	for i, m := range listed {
		if n, _ := strconv.ParseUint(string(m[1]), 10, 64); n != info.Records[i].RecordNum {
			t.Fatalf("line %d names record %d, the image holds %d there", i, n, info.Records[i].RecordNum)
		}
	}
	for _, want := range []string{"log region: sectors [", "anchor: boot", "nametable ", "leader ", "total: "} {
		if !bytes.Contains(out, []byte(want)) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
	if err := run(io.Discard, filepath.Join(t.TempDir(), "absent.img"), false); err == nil {
		t.Fatal("logdump of a missing image succeeded")
	}
}
