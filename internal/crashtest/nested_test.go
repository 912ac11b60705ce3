package crashtest

import (
	"strings"
	"testing"
)

// TestNestedExploration is the depth-2 smoke check: a bounded sample of
// outer crash states each has its recovery crashed again at sampled barrier
// epochs, and the double-crash oracle (acked ops survive, recovery decisions
// deterministic, every inner state mounts) holds everywhere.
func TestNestedExploration(t *testing.T) {
	res, err := Run(Config{Seed: 11, Ops: 60, MaxStates: 24, StateID: -1,
		Nested: true, InnerStates: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("outer=%d inner=%d/%d mountFail=%d/%d violations=%d",
		res.States, res.InnerStates, res.InnerStatesTotal,
		res.MountFailures, res.InnerMountFailures, len(res.Violations))
	if res.States == 0 {
		t.Fatal("no outer crash states executed")
	}
	if res.InnerStates == 0 {
		t.Fatal("nested run explored no inner (depth-2) states")
	}
	if res.InnerStatesTotal < res.InnerStates {
		t.Fatalf("inner accounting inverted: executed %d of %d",
			res.InnerStates, res.InnerStatesTotal)
	}
	if res.MountFailures != 0 || res.InnerMountFailures != 0 {
		t.Fatalf("mount failures: outer=%d inner=%d",
			res.MountFailures, res.InnerMountFailures)
	}
	for _, v := range res.Violations {
		t.Errorf("violation (repro: seed=%d state=%d): %s [%s]", v.Seed, v.StateID, v.Desc, v.State)
	}
	if len(res.RecoveryOfRecovery) == 0 {
		t.Fatal("recovery-of-recovery latencies not collected")
	}
	min, med, max := res.RecoveryOfRecoverySummary()
	t.Logf("recovery-of-recovery: min=%v median=%v max=%v", min, med, max)
	if max == 0 {
		t.Error("recovery-of-recovery max latency is zero")
	}
}

// TestNestedAsync runs a smaller depth-2 sample with the asynchronous
// metadata pipeline on: the recovery the inner crash interrupts includes the
// intent-queue drain, which must be just as idempotent.
func TestNestedAsync(t *testing.T) {
	res, err := Run(Config{Seed: 12, Ops: 60, MaxStates: 12, StateID: -1,
		Nested: true, InnerStates: 3, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.InnerStates == 0 {
		t.Fatal("nested async run explored no inner states")
	}
	if res.MountFailures != 0 || res.InnerMountFailures != 0 {
		t.Fatalf("mount failures: outer=%d inner=%d",
			res.MountFailures, res.InnerMountFailures)
	}
	for _, v := range res.Violations {
		t.Errorf("violation (repro: seed=%d state=%d): %s [%s]", v.Seed, v.StateID, v.Desc, v.State)
	}
}

// TestNestedConfigValidation pins the config contract: fault injection does
// not compose with the write-back window nesting relies on.
func TestNestedConfigValidation(t *testing.T) {
	if _, err := Run(Config{Seed: 1, Nested: true, Decay: 0.01}); err == nil ||
		!strings.Contains(err.Error(), "decay") {
		t.Fatalf("nested+decay accepted: %v", err)
	}
	if _, err := Run(Config{Seed: 1, Nested: true, WriteDecay: 0.01}); err == nil ||
		!strings.Contains(err.Error(), "decay") {
		t.Fatalf("nested+write-decay accepted: %v", err)
	}
}
