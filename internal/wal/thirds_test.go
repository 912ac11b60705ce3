package wal

import (
	"bytes"
	"cmp"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/disk"
)

// homeStore is a client's home locations: the FlushHook writes there what
// the log's table hands it (Due), and counts the calls.
type homeStore struct {
	pages map[imageKey][]byte
	calls []int        // the third of each call, -1 for a checkpoint
	due   [][]imageKey // what each call was handed, in target order
	fail  error        // returned (and nothing written) by the next call
}

func newHomeStore(l *Log) *homeStore {
	h := &homeStore{pages: map[imageKey][]byte{}}
	l.FlushHook = func(third int) (int, error) {
		h.calls = append(h.calls, third)
		var keys []imageKey
		for _, im := range l.Due() {
			keys = append(keys, imageKey{im.Kind, im.Target})
		}
		slices.SortFunc(keys, func(a, b imageKey) int { return cmp.Compare(a.target, b.target) })
		h.due = append(h.due, keys)
		if err := h.fail; err != nil {
			h.fail = nil
			return 0, err
		}
		for _, im := range l.Due() {
			h.pages[imageKey{im.Kind, im.Target}] = bytes.Clone(im.Data)
		}
		return len(l.Due()), nil
	}
	return h
}

// forceImages stages one image per target, all with fill, and forces them.
func forceImages(t *testing.T, l *Log, fill byte, targets ...uint64) {
	t.Helper()
	var ims []PageImage
	for _, tg := range targets {
		ims = append(ims, img(KindNameTable, tg, fill))
	}
	if _, err := l.Append(ims...); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
}

// span returns n consecutive targets from first.
func span(first uint64, n int) []uint64 {
	var ts []uint64
	for i := range n {
		ts = append(ts, first+uint64(i))
	}
	return ts
}

// TestCrossingMidBatchHandsHomeCommittedImage: a batch re-logs target 1,
// whose committed image sits in third 0, in its first record (third 2), and
// its second record crosses into third 0. The device halts after the
// crossing's home write and anchor, at the second record, before the batch's
// end record. The batch never committed, so home plus replay must give
// target 1's committed image: the crossing must have written it home, though
// the batch had by then logged a newer image of it in another third.
func TestCrossingMidBatchHandsHomeCommittedImage(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Hour})
	home := newHomeStore(l)
	forceImages(t, l, 0xA1, 1) // one 7-sector record at offset 0 of third 0
	// Maximal records to offset 483 of the 600-sector record area: third 0
	// to 173, third 1 to 366, third 2 to 483.
	for i := range 5 {
		forceImages(t, l, byte(i), span(uint64(100+40*i), MaxImagesPerRecord)...)
	}
	// The batch: an 83-sector record holding target 1's new image ends at
	// 566; its second record (35 sectors) does not fit the 34 left, so it
	// enters third 0. At 118 sectors the batch is no longer than a third.
	tl := (logSize - anchorSectors) / 3
	batch := []PageImage{img(KindNameTable, 1, 0xB2)}
	for _, tg := range span(1000, MaxImagesPerRecord+14) {
		batch = append(batch, img(KindNameTable, tg, 0xB2))
	}
	if _, err := l.Append(batch...); err != nil {
		t.Fatal(err)
	}
	d.SetWriteFault(func(addr, n int) *disk.WriteFault {
		if off := addr - logBase - anchorSectors; off >= 0 && off < tl {
			return &disk.WriteFault{Halt: true}
		}
		return nil
	})
	if err := l.Force(); !errors.Is(err, disk.ErrHalted) {
		t.Fatalf("force: %v, want the halt at the record entering third 0", err)
	}
	if len(home.calls) != 3 || home.calls[2] != 0 || l.Stats().Records != 7 {
		t.Fatalf("flush hook calls %v after %d records, want the crossings into thirds 1, 2 and 0 after the batch's first record",
			home.calls, l.Stats().Records)
	}
	d.SetWriteFault(nil)
	d.Revive()
	_, c, _ := reopen(t, d, clk, Config{})
	got := c.last[imageKey{KindNameTable, 1}]
	if got == nil {
		got = home.pages[imageKey{KindNameTable, 1}]
	}
	if want := bytes.Repeat([]byte{0xA1}, disk.SectorSize); !bytes.Equal(got, want) {
		t.Fatalf("target 1 recovers as %x…, want its committed image a1…", got[:min(len(got), 4)])
	}
	if _, ok := c.last[imageKey{KindNameTable, 1000}]; ok {
		t.Fatal("the uncommitted batch replayed")
	}
}

// TestTableHoldsCommittedImagesOnly: an image is Logged once its force
// commits, and not before; a failed FlushHook leaves the third's images in
// the table, so the retried crossing hands the same ones over again, and
// they leave the table only once it succeeds; a checkpoint hands over all
// that is left, and empties the table.
func TestTableHoldsCommittedImagesOnly(t *testing.T) {
	l, _, _ := newTestLog(t, Config{Interval: time.Hour})
	home := newHomeStore(l)
	if _, err := l.Append(img(KindNameTable, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if l.Logged(KindNameTable, 1) {
		t.Fatal("a staged image is in the table before its force")
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if !l.Logged(KindNameTable, 1) {
		t.Fatal("a committed image is not in the table")
	}
	// Maximal records: third 0 to 173 (target 1 and two records), third 1
	// to 366, third 2 to 566. A 35-sector record does not fit the 34 left,
	// so it enters third 0, where the hook fails.
	for i := range 6 {
		forceImages(t, l, byte(2+i), span(uint64(100*(i+1)), MaxImagesPerRecord)...)
	}
	var third0 []imageKey
	for _, tg := range append([]uint64{1}, append(span(100, MaxImagesPerRecord), span(200, MaxImagesPerRecord)...)...) {
		third0 = append(third0, imageKey{KindNameTable, tg})
	}
	home.fail = errors.New("injected")
	if _, err := l.Append(imgs(span(700, 15))...); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err == nil {
		t.Fatal("the force survived a failed flush hook")
	}
	if n := len(home.calls); n != 3 || home.calls[2] != 0 || !slices.Equal(home.due[2], third0) {
		t.Fatalf("hook calls %v; want the third into 0 to be handed third 0's %d images", home.calls, len(third0))
	}
	for _, k := range third0 {
		if !l.Logged(k.kind, k.target) || home.pages[k] != nil {
			t.Fatalf("a failed flush hook dropped target %d from the table", k.target)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if n := len(home.calls); n != 4 || home.calls[3] != 0 || !slices.Equal(home.due[3], third0) {
		t.Fatalf("hook calls %v; want the retried crossing into 0 handed the same %d images", home.calls, len(third0))
	}
	for _, k := range third0 {
		if l.Logged(k.kind, k.target) || home.pages[k] == nil {
			t.Fatalf("target %d is not home, or still in the table, after the retried crossing", k.target)
		}
	}
	if !l.Logged(KindNameTable, 700) {
		t.Fatal("the retried force's image is not in the table")
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := home.calls[len(home.calls)-1]; got != -1 {
		t.Fatalf("the checkpoint called the hook with third %d, want -1", got)
	}
	if n, want := len(home.due[len(home.due)-1]), 4*MaxImagesPerRecord+15; n != want {
		t.Fatalf("the checkpoint wrote %d images home, want %d", n, want)
	}
	for k := range home.pages {
		if l.Logged(k.kind, k.target) {
			t.Fatalf("target %d still in the table after the checkpoint", k.target)
		}
	}
}

// TestBatchNeverOutgrowsAThird: an Append outside any group that leaves the
// pending batch longer than one third forces it at once; inside a group the
// End does.
func TestBatchNeverOutgrowsAThird(t *testing.T) {
	l, _, _ := newTestLog(t, Config{Interval: time.Hour})
	// Two maximal records (166 sectors) fit a 200-sector third; a third
	// record of 39 images (83 more) does not.
	if _, err := l.Append(imgs(span(1, 2*MaxImagesPerRecord))...); err != nil {
		t.Fatal(err)
	}
	if l.PendingImages() == 0 {
		t.Fatal("a batch of two maximal records was forced")
	}
	l.Begin()
	if _, err := l.Append(imgs(span(100, MaxImagesPerRecord))...); err != nil {
		t.Fatal(err)
	}
	if l.PendingImages() != 3*MaxImagesPerRecord {
		t.Fatal("an Append inside a group forced")
	}
	if err := l.End(); err != nil {
		t.Fatal(err)
	}
	if n := l.PendingImages(); n != 0 || l.Stats().Forces != 1 {
		t.Fatalf("End left %d images pending after %d forces, want the long batch forced", n, l.Stats().Forces)
	}
	if _, err := l.Append(imgs(span(200, 3*MaxImagesPerRecord))...); err != nil {
		t.Fatal(err)
	}
	if n := l.PendingImages(); n != 0 || l.Stats().Forces != 2 {
		t.Fatalf("an Append outside any group left %d images pending after %d forces", n, l.Stats().Forces)
	}
}

func imgs(targets []uint64) []PageImage {
	var ims []PageImage
	for _, tg := range targets {
		ims = append(ims, img(KindNameTable, tg, byte(tg)))
	}
	return ims
}
