package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/disk"
)

// fixedEntryRoot returns a copy of the root page buf under the magic of the
// fixed-width entry format — the root a volume formatted before the varint
// entry values carries — with its checksum re-stamped.
func fixedEntryRoot(buf []byte) []byte {
	buf = bytes.Clone(buf)
	binary.BigEndian.PutUint32(buf, rootMagicFixed)
	restamp(buf, censorOff)
	return buf
}

// setFixedEntryRoot rewrites both root copies of d as fixedEntryRoot.
func setFixedEntryRoot(t *testing.T, d *disk.Disk) {
	t.Helper()
	for _, addr := range []int{0, 2} {
		buf, err := d.ReadSectors(addr, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := decodeRoot(fixedEntryRoot(buf)); !ok || !r.fixedEntries {
			t.Fatalf("root copy at %d does not decode as a fixed-width-entry root", addr)
		}
		if err := d.WriteSectors(addr, fixedEntryRoot(buf)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOldFormatVolumeRefused: a volume whose root records the fixed-width
// entry format is refused with ErrVolumeFormat by every way in — the normal
// mount, the read-only one, the mount that may salvage, and Salvage itself —
// and none of them writes a sector. A clean volume and a crashed one (whose
// mount would replay the log) alike.
func TestOldFormatVolumeRefused(t *testing.T) {
	for _, crashed := range []bool{false, true} {
		v, d, _ := newTestVolumeWith(t, testConfig())
		populate(t, v, 10)
		if crashed {
			if err := v.Force(); err != nil {
				t.Fatal(err)
			}
			v.Crash()
			d.Revive()
		} else if err := v.Shutdown(); err != nil {
			t.Fatal(err)
		}
		setFixedEntryRoot(t, d)
		ways := []struct {
			name  string
			mount func() error
		}{
			{"Mount", func() error { _, _, err := Mount(d, testConfig()); return err }},
			{"Mount(ReadOnly)", func() error { _, _, err := Mount(d, testConfig(), ReadOnly()); return err }},
			{"Mount(AllowSalvage)", func() error {
				_, rep, err := Mount(d, testConfig(), AllowSalvage())
				if rep.Salvage != nil {
					t.Error("the salvage rung ran on an old-format volume")
				}
				return err
			}},
			{"Salvage", func() error { _, _, err := Salvage(d, testConfig()); return err }},
		}
		for _, w := range ways {
			before := d.Stats().Writes
			if err := w.mount(); !errors.Is(err, ErrVolumeFormat) {
				t.Errorf("crashed=%v: %s: %v, want ErrVolumeFormat", crashed, w.name, err)
			}
			if n := d.Stats().Writes - before; n != 0 {
				t.Errorf("crashed=%v: %s wrote %d times", crashed, w.name, n)
			}
		}
	}
}
