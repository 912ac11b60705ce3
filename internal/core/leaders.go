package core

import (
	"bytes"
	"cmp"
	"slices"
	"sync"

	"repro/internal/disk"
	"repro/internal/wal"
)

// leaderSet owns every staged leader image that is not yet home: a leader
// page created or rewritten by an intent step (stepLeader) — or replayed by a
// read-only mount — whose home sector has yet to get it. The image leaves the
// set when a write puts it home, or into a held data-cache frame for the
// force's pass: piggybacked on its file's page-0 write (writeLocked), or
// written by the third crossing that hands its committed image home
// (flushLeaders). A deleted file's entry is dropped when the deletion
// commits (OnCommit).
//
// Each entry carries a generation, drawn from one counter when it is staged
// and again when a crossing writes an older committed image over its home
// sector. A writer that took the image (staged) clears the entry only if its
// generation is unchanged (wentHome): a newer image staged meanwhile, or an
// older one written over this one, keeps it in the set.
//
// An image moves one way, staged → held → home, and every move writes the
// next place before it clears the current one; so leaderNotHome, which
// looks in that order, never misses an image that is not home.
type leaderSet struct {
	mu   sync.Mutex
	imgs map[int]stagedLeader
	gen  uint64    // the last generation handed out
	reqs []homeReq // flushLeaders' scratch
}

// stagedLeader is one entry of a leaderSet: the image, one sector, which is
// replaced, never rewritten, and the generation it was last stamped with.
type stagedLeader struct {
	img *[disk.SectorSize]byte
	gen uint64
}

// stage makes img, one sector, the image of the leader at addr.
func (s *leaderSet) stage(addr int, img []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.imgs[addr] = stagedLeader{img: (*[disk.SectorSize]byte)(img), gen: s.gen}
}

// staged returns the image staged for the leader at addr, nil if none, and
// the generation wentHome takes.
func (s *leaderSet) staged(addr int) ([]byte, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.imgs[addr]
	if !ok {
		return nil, 0
	}
	return l.img[:], l.gen
}

// wentHome clears the leader at addr, whose image staged returned with gen
// and the caller has put home or held, unless the entry changed since.
func (s *leaderSet) wentHome(addr int, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.imgs[addr]; ok && l.gen == gen {
		delete(s.imgs, addr)
	}
}

// drop forgets the leader at addr: its file's deletion has committed.
func (s *leaderSet) drop(addr int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.imgs, addr)
}

// leaderNotHome reports whether the leader at addr is not home yet — staged,
// or held in the data cache for the next force's pass (held.go) — and copies
// its image into dst; a nil dst only asks.
func (v *Volume) leaderNotHome(addr int, dst []byte) bool {
	if img, _ := v.leaders.staged(addr); img != nil {
		copy(dst, img) // an image is never rewritten: no lock needed
		return true
	}
	dc := v.dataCache
	return dc != nil && dc.Holding() && dc.HeldInto(addr, dst)
}

// flushLeaders writes home the leader images among due (Log.Due) whose
// leader is still staged — one already written with its file's data, or
// dropped with its file's deletion, is not — in the name table's home-write
// order (issueByPosition), and returns how many it wrote. It holds the set's
// lock throughout, so no writer's look at an entry falls between a write and
// what it does to the entry: cleared if what went home is the staged image,
// else re-stamped, so that a page-0 write which took the staged image before
// this older one went over it keeps the entry (wentHome).
func (v *Volume) flushLeaders(due []wal.PageImage) (int, error) {
	s := &v.leaders
	s.mu.Lock()
	defer s.mu.Unlock()
	reqs := s.reqs[:0]
	for i, im := range due {
		if _, ok := s.imgs[int(im.Target)]; im.Kind == wal.KindLeader && ok {
			reqs = append(reqs, homeReq{addr: int(im.Target), lo: i})
		}
	}
	slices.SortFunc(reqs, func(a, b homeReq) int { return cmp.Compare(a.addr, b.addr) })
	s.reqs = reqs
	n := 0
	err := v.issueByPosition(reqs, func(r homeReq) error {
		img := due[r.lo].Data
		if err := v.writeSectors(r.addr, img); err != nil {
			return err
		}
		if l := s.imgs[r.addr]; bytes.Equal(l.img[:], img) {
			delete(s.imgs, r.addr)
		} else {
			s.gen++
			l.gen = s.gen
			s.imgs[r.addr] = l
		}
		n++
		return nil
	})
	return n, err
}
