package bench

import (
	"slices"
	"testing"
)

// TestPFsckShape: the formula the report used to publish beside its runs —
// a pass that overlaps its check CPU with its device sweep costs
// max(arm, pool/k) — is a bound the runs are held to, not a column. At every
// width of the recorded curve (identical output is asserted by the run
// itself), each measured point lies within 10 % of max(arm, pool/k) plus
// what cannot overlap: for the salvage sweep one checkpoint interval, whose
// read has no decode beside it; for Verify the name-table walk, which
// nothing runs beside.
func TestPFsckShape(t *testing.T) {
	t.Parallel()
	rep := runOnce[PFsckReport](t, "pfsck")
	if rep.Entries < 1024 {
		t.Fatalf("%d entries: too few chunks for width 4 to matter", rep.Entries)
	}
	intervals := float64(rep.SweepSectors) / (32 * 64)
	for i, sr := range rep.Salvage {
		k := float64(sr.Workers)
		bound := max(sr.ArmS, sr.PoolS/k)
		if limit := 1.1*bound + bound/intervals; sr.MeasuredS > limit || sr.HiddenS <= 0 {
			t.Errorf("salvage sweep at %v workers: measured %.1f s (hidden %.1f), want at most %.1f = 1.1 x max(arm %.1f, pool %.1f / %v) + an interval",
				k, sr.MeasuredS, sr.HiddenS, limit, sr.ArmS, sr.PoolS, k)
		}
		vr := rep.Verify[i]
		bound = max(vr.ArmS, vr.PoolS/k)
		if limit := 1.1*bound + rep.VerifyWalkS; vr.MeasuredS > limit || vr.HiddenS <= 0 {
			t.Errorf("verify at %v workers: measured %.1f s (hidden %.1f), want at most %.1f = 1.1 x max(arm %.1f, pool %.1f / %v) + the walk's %.1f",
				k, vr.MeasuredS, vr.HiddenS, limit, vr.ArmS, vr.PoolS, k, rep.VerifyWalkS)
		}
	}
	w4 := slices.IndexFunc(rep.Salvage, func(r PFsckRun) bool { return r.Workers == 4 })
	if w4 < 0 {
		t.Fatal("no width-4 point on the curve")
	}
	if rep.Salvage[w4].Speedup < 3 || rep.Verify[w4].Speedup <= 1 {
		t.Errorf("width 4 speeds the sweep up %.2fx and Verify %.2fx", rep.Salvage[w4].Speedup, rep.Verify[w4].Speedup)
	}
}
