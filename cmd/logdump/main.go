// Logdump prints the contents of an FSD volume's metadata log from a disk
// image, read-only — records, their batch boundaries, and per-image
// targets. Run it against a crashed image (fsdctl crash) to see exactly
// what recovery will replay: wal.Inspect walks the log with replay's own
// walker, reader and stopping rule, in the division count the log's anchor
// records, so the listing ends where replay ends.
//
// Usage:
//
//	logdump -img vol.img [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/wal"
)

func main() {
	img := flag.String("img", "cedar.img", "disk image file")
	verbose := flag.Bool("v", false, "print every image target")
	flag.Parse()
	if err := run(os.Stdout, *img, *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "logdump: %v\n", err)
		os.Exit(1)
	}
}

func kindName(k uint8) string {
	switch k {
	case wal.KindNameTable:
		return "nametable"
	case wal.KindLeader:
		return "leader"
	default:
		return fmt.Sprintf("kind%d", k)
	}
}

func run(w io.Writer, img string, verbose bool) error {
	d, err := disk.LoadImage(img, disk.DefaultParams, sim.NewVirtualClock())
	if err != nil {
		return err
	}
	base, size, err := core.LogRegionOf(d)
	if err != nil {
		return err
	}
	info, err := wal.Inspect(d, base, size)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "log region: sectors [%d, %d), %d divisions of %d sectors\n",
		base, base+size, info.Thirds, info.ThirdLen)
	fmt.Fprintf(w, "anchor: boot %d, oldest record %d at offset %d\n",
		info.BootCount, info.AnchorRecord, info.AnchorOffset)
	fmt.Fprintf(w, "%d valid records:\n", len(info.Records))
	totalImages := 0
	for _, r := range info.Records {
		mark := " "
		if r.EndOfBatch {
			mark = "*"
		}
		fmt.Fprintf(w, "  rec %4d @%5d  %2d images, %2d sectors %s\n",
			r.RecordNum, r.Offset, r.Images, r.Sectors, mark)
		totalImages += r.Images
		if verbose {
			for _, t := range r.Targets {
				fmt.Fprintf(w, "        %s %d\n", kindName(t.Kind), t.Target)
			}
		}
	}
	fmt.Fprintf(w, "total: %d images; * marks batch (force) boundaries\n", totalImages)
	if info.PartialTail > 0 {
		fmt.Fprintf(w, "WARNING: %d trailing records belong to an unterminated batch and will be discarded by recovery\n", info.PartialTail)
	}
	return nil
}
