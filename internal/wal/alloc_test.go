package wal

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/allocgate"
	"repro/internal/disk"
)

// newForceLoop returns a log and a function that stages 16 images — four of
// them twice, as a hot page is — and forces them.
func newForceLoop(tb testing.TB) (*Log, func()) {
	tb.Helper()
	l, _, _ := newTestLog(tb, Config{Interval: time.Hour})
	images := make([]PageImage, 20)
	for i := range images {
		images[i] = img(KindNameTable, uint64(i%16), byte(i))
	}
	round := 0
	return l, func() {
		round++
		for i := range images {
			images[i].Data[0] = byte(round)
			if _, err := l.Append(images[i]); err != nil {
				tb.Fatal(err)
			}
		}
		if err := l.Force(); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestForceAllocs is the log's allocation gate: once warm, staging sixteen
// images and forcing them allocates neither a record buffer nor a copy of an
// image — the record is assembled in the log's one buffer, an image is
// staged in a sector a forced record gave back, and one replaced in the same
// batch is overwritten where it lies. What is left is a few small objects,
// none of them a sector.
func TestForceAllocs(t *testing.T) {
	l, appendForce := newForceLoop(t)
	l.FlushHook = func(int) (int, error) {
		for _, im := range l.Due() {
			if want := byte(16 + im.Target); im.Target < 4 && im.Data[1] != want {
				t.Errorf("target %d logged with fill %d, want the replacing image's %d", im.Target, im.Data[1], want)
			}
		}
		return len(l.Due()), nil
	}
	for i := 0; i < 10; i++ {
		appendForce()
	}
	before := l.Stats()
	allocs, size := testing.AllocsPerRun(100, appendForce), allocgate.BytesPerRun(100, appendForce)
	t.Logf("append 16+4 / force: %v allocs, %d B", allocs, size)
	if allocs > 4 || size >= disk.SectorSize {
		t.Errorf("a warm append+force of 16 images: %v allocs, %d B; want a few small objects and no sector", allocs, size)
	}
	st := l.Stats()
	if n := st.Records - before.Records; n != 202 || st.ImagesLogged-before.ImagesLogged != 16*n || st.ImagesElided-before.ImagesElided != 4*n {
		t.Fatalf("the gate measures one 16-image record and 4 elided images per call: %+v", st)
	}
	if st.ThirdCrossings == before.ThirdCrossings {
		t.Fatal("the loop never crossed a third")
	}
}

// TestStagedImagesSurviveReuse: the sectors a force gives back are staged
// over while the next force is still to come, and a failed force keeps the
// ones it puts back — whatever order that happens in, replay yields the
// newest image of every target.
func TestStagedImagesSurviveReuse(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Hour})
	want := make(map[uint64]byte)
	stage := func(target uint64, fill byte) {
		t.Helper()
		if _, err := l.Append(img(KindNameTable, target, fill)); err != nil {
			t.Fatal(err)
		}
		want[target] = fill
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 50; i++ {
			stage(uint64((round*7+i)%60), byte(round*50+i))
		}
		if round == 3 {
			// A force that fails puts its batch back; two targets are
			// re-staged first, so their old images are discarded.
			d.SetWriteFault(func(addr, n int) *disk.WriteFault { return &disk.WriteFault{Persist: 1} })
			if err := l.Force(); err == nil {
				t.Fatal("force under a write fault succeeded")
			}
			d.SetWriteFault(nil)
			stage(3, 0xEE)
			stage(4, 0xEF)
		}
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
	}
	_, ap, _ := reopen(t, d, clk, Config{})
	for target, fill := range want {
		got := ap.last[imageKey{KindNameTable, target}]
		if !bytes.Equal(got, bytes.Repeat([]byte{fill}, disk.SectorSize)) {
			t.Errorf("target %d replays as fill %d, want %d", target, got[0], fill)
		}
	}
}

// BenchmarkAppendForce16: stage 16 images (and 4 more that replace some) and
// force them — one record per iteration.
func BenchmarkAppendForce16(b *testing.B) {
	_, appendForce := newForceLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendForce()
	}
}
