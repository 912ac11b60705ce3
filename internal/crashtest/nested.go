package crashtest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sim"
)

// Nested (depth-2) exploration: crash the crash recovery. For each outer
// crash image, the recovery mount itself runs under a fresh write-back
// window, so every write recovery makes — replayed images going home, the
// allocation-map rebase, the anchor reset — is journaled with its barrier
// epoch exactly like workload writes are. The explorer then crashes the
// recovery at every (sampled) barrier state, mounts the result, and holds it
// to the same check as depth 1: acknowledged operations survive the double
// crash, unacknowledged ones stay atomic, and every state mounts.
//
// The check carries a stronger test at this depth: the first recovery's
// verdict on every planned file (present with exactly these bytes, or absent)
// must be reproduced by the second recovery, whatever the inner cut. That is
// the observable form of the replay-idempotence contract — before the log
// reset the second recovery replays the same log to the same decisions, and
// after it the home state is already complete — so any divergence means a
// recovery write skipped its barrier.
//
// Fault injection does not compose with nesting (the write-back window
// bypasses the write-fault injector by design); Run rejects the combination.

// reconstruct builds the crash image for st from a frozen base and its
// journal trace (shared by the depth-1 and depth-2 paths).
func reconstruct(base *disk.Disk, trace []disk.JournaledWrite, byEpoch [][]int, st State) *disk.Disk {
	d := base.Clone(sim.NewVirtualClock())
	for _, w := range trace {
		if w.Epoch < st.Cut {
			d.ApplyJournaled(w)
		}
	}
	cutWrites := byEpoch[st.Cut]
	for _, i := range st.Order {
		d.ApplyJournaled(trace[cutWrites[i]])
	}
	if st.Torn != nil {
		d.ApplyTorn(trace[cutWrites[st.Torn.Write]], st.Torn.Persist, st.Torn.DamagePrev)
	}
	return d
}

// inner explores the crash states of the first recovery of st, whose
// write-back window over the outer image base journaled trace: each is
// mount → check against the view the first recovery left → probe.
func (x *explorer) inner(res *stateResult, st State, base *disk.Disk, trace []disk.JournaledWrite, epochs int, view map[string][]byte) {
	states := Enumerate(trace, epochs, x.cfg.Seed^int64(st.ID)*0x1000193^0x7EEDFACE)
	res.innerTotal = len(states)
	byEpoch := groupByEpoch(trace, epochs)
	for _, ist := range stride(states, x.cfg.InnerStates) {
		res.innerStates++
		before := len(res.violations)
		fail := func(descs ...string) { res.fail(x.cfg.Seed, st, ist.String(), "second recovery: ", descs...) }
		v, ms, err := core.Mount(reconstruct(base, trace, byEpoch, ist), explorerConfig(x.cfg.Async))
		if err != nil {
			res.innerMountFail++
			fail(fmt.Sprintf("mount failed: %v", err))
		} else {
			res.rrTimes = append(res.rrTimes, ms.Elapsed)
			_, fails, _ := check(v, x.w.plan, st.Cut, view, false)
			fail(fails...)
			fails, _ = probe(v, false)
			fail(fails...)
			v.Crash()
		}
		res.innerViolations += len(res.violations) - before
	}
}
