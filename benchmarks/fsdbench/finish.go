package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	cedarfs "repro"
	"repro/internal/disk"
)

// tailOps is the length of the unforced tail every workload ends with; it
// is what the log holds when the crash comes, so it sizes recover_sim_s.
const tailOps = 2000

// newTail lays out (but does not populate) the tail client's namespace.
func newTail(seed int64, pool []byte, tiny, async bool) *metaClient {
	dirs, mix := 4, mutationMix
	if tiny {
		dirs = 1
	}
	if async {
		mix = asyncTailMix
	}
	return newMetaClient(nil, nil, "tail", seed^0x7a11, pool, mix, dirs, 16)
}

// attach points the client at a (re)mounted volume.
func (c *metaClient) attach(v *cedarfs.Volume) {
	c.fs = cedarfs.NewLocalFS(v)
	c.ackSeq = v.CommitSeq
}

// resync rebuilds the client's cursors from its model after a crash rolled
// the model back: which rename state each base file is in and which temp
// files are live. Temp sequence numbers only move forward, so a name lost
// in the crash is never reused. A crash that fell between the delete and
// the create of a recreate left a base file absent; it is created again
// and forced, so the mix keeps finding every base file it picks.
func (c *metaClient) resync() error {
	healed := false
	for i, n := range c.names {
		_, c.alt[i] = c.m.files[n[1]]
		if _, ok := c.m.files[n[0]]; !ok && !c.alt[i] {
			healed = c.create(n[0], c.smallSize()) || healed
		}
	}
	c.tmp = c.tmp[:0]
	for name := range c.m.files {
		if strings.HasPrefix(name, c.tmpDir) {
			c.tmp = append(c.tmp, name)
		}
	}
	sort.Strings(c.tmp)
	if healed {
		_, err := c.fs.Force(bg)
		return err
	}
	return nil
}

// crashCycle runs n journaled operations of c with nothing forced except
// one WaitCommitted halfway (so the oracle has a confirmed prefix to hold
// the volume to), then pulls the plug, revives the disk and mounts. After
// the mount it finds the surviving prefix and rolls c's model back to it.
// beforeCrash, when set, sees the volume just before the plug is pulled. It
// returns the remounted volume, the mount report and the mount's wall time.
func crashCycle(o *outcome, v *cedarfs.Volume, d *disk.Disk, cfg cedarfs.Config, c *metaClient, n int, stage string, beforeCrash func(*cedarfs.Volume)) (*cedarfs.Volume, cedarfs.MountReport, time.Duration, error) {
	fail := func(err error) (*cedarfs.Volume, cedarfs.MountReport, time.Duration, error) {
		return nil, cedarfs.MountReport{}, 0, err
	}
	c.attach(v)
	c.m.stepwise = cfg.AsyncApply
	c.m.startJournal()
	confirmed := 0
	for i := 0; i < n; i++ {
		c.step()
		if i == n/2 {
			if err := v.WaitCommitted(v.CommitSeq()); err != nil {
				return fail(fmt.Errorf("%s: wait committed: %w", stage, err))
			}
			confirmed = len(c.m.marks)
		}
	}
	if beforeCrash != nil {
		beforeCrash(v)
	}
	v.Crash()
	d.Revive()
	t0 := time.Now()
	v2, rep, err := cedarfs.Mount(d, cfg)
	mountWall := time.Since(t0)
	if err != nil {
		return fail(fmt.Errorf("%s: mount after crash: %w", stage, err))
	}
	c.attach(v2)
	cut, err := c.m.resolveCrash(observeFS(c.fs), confirmed)
	switch {
	case err != nil:
		return fail(fmt.Errorf("%s: observing the remounted volume: %w", stage, err))
	case cut < 0:
		o.problem("%s: no prefix of the %d unforced operations (first %d confirmed) matches the remounted volume", stage, n, confirmed)
	}
	c.m.stopJournal()
	if err := c.resync(); err != nil {
		return fail(fmt.Errorf("%s: force after resync: %w", stage, err))
	}
	return v2, rep, mountWall, nil
}

// finish is the end of every workload: read every live file back through
// fs against the models; force; run the unforced tail; crash, revive and
// mount (the mount's simulated time is recover_sim_s); require the tail's
// survivors to be a prefix covering everything confirmed; read everything
// back again from the remounted volume; require Verify clean and the
// volume healthy. It returns the remounted volume.
func finish(o *outcome, v *cedarfs.Volume, d *disk.Disk, cfg cedarfs.Config, fs cedarfs.FS, tail *metaClient, models func() *model) (*cedarfs.Volume, error) {
	before := models()
	o.Inputs = before.fingerprint()
	before.verifyAll(fs, o, "before crash")
	if _, err := fs.Force(bg); err != nil {
		return nil, fmt.Errorf("final force: %w", err)
	}
	guardSteady(o, v, "end of measured part")

	v2, rep, _, err := crashCycle(o, v, d, cfg, tail, tailOps, "tail", nil)
	if err != nil {
		return nil, err
	}
	collect(o, &tail.clientStats)
	o.Attempted += tailOps
	o.Metrics.set("recover_sim_s", rep.Elapsed.Seconds())
	if rep.LogRecords == 0 {
		o.problem("tail: the mount replayed no log records; recover_sim_s measured nothing")
	}
	checked := merged(models(), tail.m).verifyAll(cedarfs.NewLocalFS(v2), o, "after crash")

	vs, err := v2.Verify()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	for _, p := range vs.Problems {
		o.problem("verify: %s", p)
	}
	guardSteady(o, v2, "after recovery")
	o.Notes = append(o.Notes, fmt.Sprintf("end checks: every live version read back before the crash, %d after it; the tail's mount replayed %d log records; verify saw %d entries",
		checked, rep.LogRecords, vs.Entries))
	return v2, nil
}

// guardSteady fails the run when the volume is anything but healthy: an
// unbalanced mix fills the name table, the volume drops to read-only, and
// every number after that point measures refusals.
func guardSteady(o *outcome, v *cedarfs.Volume, stage string) {
	if h := v.Health(); h != cedarfs.HealthHealthy {
		o.problem("%s: volume is %s (%s), want healthy", stage, h, v.HealthReason())
	}
}

// guardLive fails the run when the number of live names moved by more than
// 5 % over the measured part: a mix that is not stationary measures a
// different volume at the end than at the start.
func guardLive(o *outcome, start, end int) {
	if end > start+start/20 || end < start-start/20 {
		o.problem("live set moved from %d to %d names: the mix is not stationary", start, end)
	}
}

// collect folds clients' own failure counts and first problems into o.
func collect(o *outcome, stats ...*clientStats) {
	for _, s := range stats {
		o.Failed += s.failed
		for _, p := range s.problems {
			if len(o.Problems) < 12 {
				o.Problems = append(o.Problems, p)
			}
		}
	}
}
