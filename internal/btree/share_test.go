package btree

import (
	"bytes"
	"fmt"
	"testing"
)

// The share tests run on 256-byte pages with 4-byte keys and 40-byte
// values: a 50-byte cell with its slot, four to a page. Two pages hold eight
// such cells within the share rule's 7/8, not nine, so a full leaf shares
// with a sibling of three cells or fewer and splits beside a full one.
const sharePageSize = 256

func shareKey(k int) []byte { return []byte(fmt.Sprintf("%04d", k)) }

// shareValue is the 40-byte value of the test cells, filled with b.
func shareValue(b byte) []byte { return bytes.Repeat([]byte{b}, 40) }

// The three sequences the share tests build and FuzzTreeOps starts from.
var (
	// shareLeftSeq ends with the rightmost leaf full and its left sibling
	// holding three cells: the last Put shares left.
	shareLeftSeq = []int{10, 20, 30, 40, 50, 60, 70, 80}
	// shareRightSeq fills the left leaf of a two-leaf tree: the last Put
	// shares right, with a sibling of two cells.
	shareRightSeq = []int{10, 20, 30, 40, 50, 11, 12}
	// mustSplitSeq ends with a full leaf between two full siblings.
	mustSplitSeq = []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 97, 55, 65}
)

// putKeys inserts each key of keys with a test value.
func putKeys(t *testing.T, tr *Tree, keys []int) {
	t.Helper()
	for _, k := range keys {
		if err := tr.Put(shareKey(k), shareValue(byte(k))); err != nil {
			t.Fatalf("Put %d: %v", k, err)
		}
		if err := tr.Check(); err != nil {
			t.Fatalf("Check after Put %d: %v", k, err)
		}
	}
}

// leafKeys returns the first key of each leaf of a height-2 tree in chain
// order, with the root's separators.
func leafKeys(t *testing.T, tr *Tree) (firsts, seps []string, leaves []uint32) {
	t.Helper()
	if tr.height != 2 {
		t.Fatalf("height %d, want 2", tr.height)
	}
	root, err := tr.view(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < root.nslots(); i++ {
		seps = append(seps, string(root.key(i)))
	}
	for id := root.link(); id != 0; {
		n, err := tr.view(id)
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, id)
		firsts = append(firsts, string(n.key(0)))
		id = n.link()
	}
	return firsts, seps, leaves
}

// TestFullLeafSharesWithSibling: a full leaf beside a sibling with room
// spreads its cells over the two, right sibling first, then left. The Put
// allocates no page, keeps both leaves, and the parent's separator is the
// right page's first key.
func TestFullLeafSharesWithSibling(t *testing.T) {
	for _, tc := range []struct {
		name       string
		seq        []int
		wantFirsts []string
		wantWrites int
	}{
		// [10 11 20 30] + 12 beside [40 50] → [10 11 12] [20 30 40 50].
		{"right", shareRightSeq, []string{"0010", "0020"}, 3},
		// [10 20 30] beside [40 50 60 70] + 80 → [10 20 30 40] [50 60 70 80].
		{"left", shareLeftSeq, []string{"0010", "0050"}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewMemPager(sharePageSize, 64)
			tr, err := Create(p)
			if err != nil {
				t.Fatal(err)
			}
			last := len(tc.seq) - 1
			putKeys(t, tr, tc.seq[:last])
			_, _, before := leafKeys(t, tr)
			pages, writes := tr.AllocatedPages(), p.Writes
			putKeys(t, tr, tc.seq[last:])
			if got := tr.AllocatedPages(); got != pages {
				t.Errorf("the share allocated pages: %d → %d", pages, got)
			}
			if got := p.Writes - writes; got != tc.wantWrites {
				t.Errorf("the share wrote %d pages, want %d (two leaves and the parent)", got, tc.wantWrites)
			}
			firsts, seps, leaves := leafKeys(t, tr)
			if fmt.Sprint(leaves) != fmt.Sprint(before) {
				t.Errorf("leaves %v after the share, want %v", leaves, before)
			}
			if fmt.Sprint(firsts) != fmt.Sprint(tc.wantFirsts) {
				t.Errorf("leaves begin %v, want %v", firsts, tc.wantFirsts)
			}
			if len(seps) != 1 || seps[0] != firsts[1] {
				t.Errorf("separators %v, want the right page's first key %s", seps, firsts[1])
			}
			for _, k := range tc.seq {
				if v, err := tr.Get(shareKey(k)); err != nil || !bytes.Equal(v, shareValue(byte(k))) {
					t.Fatalf("Get %d after the share: %v", k, err)
				}
			}
		})
	}
}

// TestFullLeafBetweenFullSiblingsSplits: with both siblings full the share
// rule fails on each side, and the leaf splits as before: one fresh page,
// the separator its first key.
func TestFullLeafBetweenFullSiblingsSplits(t *testing.T) {
	tr, err := Create(NewMemPager(sharePageSize, 64))
	if err != nil {
		t.Fatal(err)
	}
	last := len(mustSplitSeq) - 1
	putKeys(t, tr, mustSplitSeq[:last])
	// [10 20 30 40] [50 55 60 70] [80 90 95 97], all full.
	firsts, _, _ := leafKeys(t, tr)
	if fmt.Sprint(firsts) != "[0010 0050 0080]" {
		t.Fatalf("leaves begin %v before the split, want [0010 0050 0080]", firsts)
	}
	pages := tr.AllocatedPages()
	putKeys(t, tr, mustSplitSeq[last:])
	if got := tr.AllocatedPages(); got != pages+1 {
		t.Errorf("the split allocated %d pages, want 1", got-pages)
	}
	// [50 55 60 65 70] splits by bytes at its third cell.
	firsts, seps, _ := leafKeys(t, tr)
	if fmt.Sprint(firsts) != "[0010 0050 0065 0080]" || fmt.Sprint(seps) != "[0050 0065 0080]" {
		t.Errorf("after the split: leaves begin %v, separators %v", firsts, seps)
	}
}
