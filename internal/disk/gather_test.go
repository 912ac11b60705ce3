package disk

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// gatherOf cuts data into a gather list of the given sector counts (an empty
// buffer for a zero), which must add up to its length.
func gatherOf(data []byte, sectors ...int) [][]byte {
	var src [][]byte
	for _, n := range sectors {
		src = append(src, data[:n*SectorSize])
		data = data[n*SectorSize:]
	}
	return src
}

// TestGatherWriteIsOneTransfer: WriteSectorsFrom a list of buffers is the
// write of their concatenation — one operation with the same timing, the
// same counters, the same sectors on the platter and the same entry in the
// write-back journal — and the retry path resumes a gather at the sector
// that failed, wherever in the list it lies, spending what the one-buffer
// write spends under the same faults.
func TestGatherWriteIsOneTransfer(t *testing.T) {
	payload := make([]byte, 9*SectorSize)
	for i := range payload {
		payload[i] = byte(i/SectorSize*31 + i)
	}
	type outcome struct {
		events            []OpEvent
		stats             Stats
		retried, remapped int
		journal           []JournaledWrite
	}
	run := func(faults *FaultConfig, writeBack bool, write func(d *Disk) (int, int, error)) outcome {
		t.Helper()
		d := newFaultDisk(t)
		if err := d.WriteSectors(40, make([]byte, SectorSize)); err != nil { // park the arm elsewhere
			t.Fatal(err)
		}
		if writeBack {
			d.EnableWriteBack()
		}
		if faults != nil {
			d.InjectFaults(*faults)
		}
		var o outcome
		d.SetOpObserver(func(e OpEvent) { o.events = append(o.events, e) })
		var err error
		if o.retried, o.remapped, err = write(d); err != nil {
			t.Fatalf("write: %v", err)
		}
		d.SetOpObserver(nil)
		d.ClearFaults()
		o.stats, o.journal = d.Stats(), d.Trace()
		if got, err := d.ReadSectors(200, 9); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("sectors after the write: %v", err)
		}
		return o
	}
	one := func(d *Disk) (int, int, error) { return WriteSectorsRetry(d, 200, payload, 32) }
	gathered := func(d *Disk) (int, int, error) {
		return WriteSectorsRetryFrom(d, 200, 32, gatherOf(payload, 1, 0, 5, 3)...)
	}

	a, b := run(nil, false, one), run(nil, false, gathered)
	if len(b.events) != 1 || b.events[0].Sectors != 9 || !b.events[0].OK {
		t.Fatalf("a gather of three buffers: events %+v, want one 9-sector write", b.events)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("clean write: gather %+v, one buffer %+v", b, a)
	}

	a, b = run(nil, true, one), run(nil, true, gathered)
	if len(b.journal) != 1 || !bytes.Equal(b.journal[0].Data, payload) {
		t.Fatalf("write-back journal of a gather: %d entries, want the one 9-sector write", len(b.journal))
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("write-back: gather and one-buffer write differ")
	}

	resumed := 0 // multi-sector operations that began inside the second or third buffer
	for seed := int64(1); seed <= 20; seed++ {
		cfg := FaultConfig{Seed: seed, TransientWrite: 0.25, BadOnWrite: 0.05}
		a, b = run(&cfg, false, one), run(&cfg, false, gathered)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: under the same faults the gather spent %d retries / %d remaps in %d operations, the one-buffer write %d / %d in %d",
				seed, b.retried, b.remapped, len(b.events), a.retried, a.remapped, len(a.events))
		}
		for _, e := range b.events {
			if e.Addr > 201 && e.Sectors > 1 {
				resumed++
			}
		}
	}
	if resumed == 0 {
		t.Error("no operation resumed inside the second buffer: the sweep never exercised it")
	}
}

// BenchmarkGatherWrite: the create-shaped write — a leader page and 64 data
// sectors from two buffers, one operation.
func BenchmarkGatherWrite(b *testing.B) {
	d, err := New(SmallGeometry, DefaultParams, sim.NewVirtualClock())
	if err != nil {
		b.Fatal(err)
	}
	leader, data := make([]byte, SectorSize), make([]byte, 64*SectorSize)
	b.SetBytes(int64(len(leader) + len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.WriteSectorsFrom(300, leader, data); err != nil {
			b.Fatal(err)
		}
	}
}
