package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strings"

	cedarfs "repro"
)

// The harness's model of the volume: for every name it owns, the live
// versions with size, payload checksum and keep count. Every workload
// checks call results against it while running, reads every live file
// back against it at the end, and — through the undo journal — decides
// after a crash which prefix of the unforced operations survived.

type fver struct {
	ver  uint32
	size int
	crc  uint32
	keep uint16
}

// fstate is the ascending version list of one name; nil means absent.
type fstate []fver

func (s fstate) newest() *fver {
	if len(s) == 0 {
		return nil
	}
	return &s[len(s)-1]
}

type undo struct {
	name string
	prev fstate
}

type model struct {
	files map[string]fstate

	// While journaling, every mutation saves the prior state of the names
	// it touches; marks[i] is the journal length after operation i, so the
	// model can be rolled back operation by operation.
	journaling bool
	journal    []undo
	marks      []int

	// stepwise makes the two-step mutations two operations each: a create
	// under a keep count is "add the version" then "drop what keep no
	// longer covers", a rename is "new name appears" then "old name goes".
	// On a volume running the asynchronous pipeline the applier stages an
	// intent's steps one by one while forces run beside it, so a crash can
	// fall between them (observed: a ring slot holding versions 12, 13, 14
	// under keep=2). On a staged volume driven by one goroutine forces
	// only happen between operations, and the strict form holds.
	stepwise bool
}

func newModel() *model { return &model{files: map[string]fstate{}} }

func (m *model) save(name string) {
	if m.journaling {
		m.journal = append(m.journal, undo{name, append(fstate(nil), m.files[name]...)})
	}
}

func (m *model) put(name string, s fstate) {
	if len(s) == 0 {
		delete(m.files, name)
	} else {
		m.files[name] = s
	}
}

// opEnd closes one journaled operation. Every mutation below is one
// operation: it is what the volume applies atomically, so a crash may fall
// between the delete and the create of a "recreate" but not inside either.
func (m *model) opEnd() {
	if m.journaling {
		m.marks = append(m.marks, len(m.journal))
	}
}

func (m *model) startJournal() { m.journaling, m.journal, m.marks = true, nil, nil }
func (m *model) stopJournal()  { m.journaling, m.journal, m.marks = false, nil, nil }

// create adds a new version the way core does: highest+1, keep inherited
// from the previous newest, versions the keep no longer covers dropped.
func (m *model) create(name string, size int, crc uint32) fver {
	m.save(name)
	s := append(fstate(nil), m.files[name]...)
	v := fver{ver: 1, size: size, crc: crc}
	if n := s.newest(); n != nil {
		v.ver, v.keep = n.ver+1, n.keep
	}
	s = append(s, v)
	m.put(name, s)
	if v.keep > 0 && uint32(v.keep) < v.ver && s[0].ver <= v.ver-uint32(v.keep) {
		if m.stepwise {
			m.opEnd()
			m.save(name)
		}
		for s[0].ver <= v.ver-uint32(v.keep) {
			s = s[1:]
		}
		m.put(name, append(fstate(nil), s...))
	}
	m.opEnd()
	return v
}

// del removes the newest version; false when the name is absent.
func (m *model) del(name string) bool {
	s := m.files[name]
	if len(s) == 0 {
		return false
	}
	m.save(name)
	m.put(name, append(fstate(nil), s[:len(s)-1]...))
	m.opEnd()
	return true
}

func (m *model) rename(oldName, newName string) {
	m.save(newName)
	m.put(newName, m.files[oldName])
	if m.stepwise {
		m.opEnd()
	}
	m.save(oldName)
	delete(m.files, oldName)
	m.opEnd()
}

func (m *model) setKeep(name string, keep uint16) {
	m.save(name)
	s := append(fstate(nil), m.files[name]...)
	s.newest().keep = keep
	m.put(name, s)
	m.opEnd()
}

// rewrite replaces the newest version's checksum (an in-place write).
func (m *model) rewrite(name string, crc uint32) {
	m.save(name)
	s := append(fstate(nil), m.files[name]...)
	s.newest().crc = crc
	m.put(name, s)
	m.opEnd()
}

// sameShape compares what a crash can change: which versions exist, their
// sizes and keeps. Payload is checked separately, once the cut is known.
func sameShape(a, b fstate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ver != b[i].ver || a[i].size != b[i].size || a[i].keep != b[i].keep {
			return false
		}
	}
	return true
}

// resolveCrash finds the operation prefix that survived a crash. observe
// returns the on-volume state of one name. Operations [0, confirmed) were
// covered by a Force or WaitCommitted that returned and must be present;
// each later one must be wholly present or wholly absent, and because the
// log is ordered the survivors form a prefix. It rolls the model back to
// that prefix and returns its length, or -1 when no prefix matches.
func (m *model) resolveCrash(observe func(name string) (fstate, error), confirmed int) (int, error) {
	seen := map[string]fstate{}
	bad := map[string]bool{}
	check := func(name string) error {
		obs, ok := seen[name]
		if !ok {
			var err error
			if obs, err = observe(name); err != nil {
				return err
			}
			seen[name] = obs
		}
		if sameShape(obs, m.files[name]) {
			delete(bad, name)
		} else {
			bad[name] = true
		}
		return nil
	}
	for _, u := range m.journal {
		if err := check(u.name); err != nil {
			return -1, err
		}
	}
	for k := len(m.marks); ; k-- {
		if len(bad) == 0 {
			m.journal, m.marks = m.journal[:0], m.marks[:0]
			return k, nil
		}
		if k <= confirmed {
			return -1, nil
		}
		lo := 0
		if k > 1 {
			lo = m.marks[k-2]
		}
		for i := m.marks[k-1] - 1; i >= lo; i-- {
			u := m.journal[i]
			m.put(u.name, u.prev)
			if err := check(u.name); err != nil {
				return -1, err
			}
		}
		m.journal, m.marks = m.journal[:lo], m.marks[:k-1]
	}
}

// observeFS reads one name's versions through the FS interface.
func observeFS(fs cedarfs.FS) func(string) (fstate, error) {
	return func(name string) (fstate, error) {
		infos, err := fs.List(bg, name)
		if err != nil {
			return nil, err
		}
		var s fstate
		for _, fi := range infos {
			if fi.Name == name {
				s = append(s, fver{ver: fi.Version, size: int(fi.ByteSize), keep: fi.Keep})
			}
		}
		return s, nil
	}
}

var bg = context.Background()

// readWhole reads version ver of name through fs and returns its bytes.
func readWhole(fs cedarfs.FS, name string, ver uint32) ([]byte, cedarfs.FileInfo, error) {
	h, err := fs.Open(bg, name, ver)
	if err != nil {
		return nil, cedarfs.FileInfo{}, err
	}
	defer h.Close()
	fi := h.Info()
	buf := make([]byte, fi.ByteSize)
	if len(buf) > 0 {
		if n, err := h.ReadAt(bg, buf, 0); err != nil && !(err == io.EOF && n == len(buf)) {
			return nil, fi, err
		}
	}
	return buf, fi, nil
}

// verifyAll reads every live version of every modelled name back through
// fs and reports each mismatch (payload checksum, size, version, keep) as
// a problem. It also lists each top-level namespace to catch entries the
// model does not know. Returns the number of versions checked.
func (m *model) verifyAll(fs cedarfs.FS, o *outcome, stage string) int {
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	checked := 0
	roots := map[string]int{}
	for _, name := range names {
		roots[name[:strings.IndexByte(name, '/')+1]] += len(m.files[name])
		for _, v := range m.files[name] {
			checked++
			data, fi, err := readWhole(fs, name, v.ver)
			switch {
			case err != nil:
				o.problem("%s: %s!%d: %v", stage, name, v.ver, err)
			case fi.Version != v.ver || int(fi.ByteSize) != v.size || fi.Keep != v.keep:
				o.problem("%s: %s!%d: got v%d size %d keep %d, want size %d keep %d",
					stage, name, v.ver, fi.Version, fi.ByteSize, fi.Keep, v.size, v.keep)
			case crc32.ChecksumIEEE(data) != v.crc:
				o.problem("%s: %s!%d: payload checksum mismatch", stage, name, v.ver)
			}
		}
	}
	for root, want := range roots {
		infos, err := fs.List(bg, root)
		if err != nil {
			o.problem("%s: list %s: %v", stage, root, err)
		} else if len(infos) != want {
			o.problem("%s: namespace %s holds %d entries, model has %d", stage, root, len(infos), want)
		}
	}
	return checked
}

// fingerprint is a checksum of everything the model holds. It depends on
// the generated inputs only, so equal seeds give equal fingerprints however
// the run was scheduled.
func (m *model) fingerprint() uint32 {
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	h := crc32.NewIEEE()
	for _, n := range names {
		fmt.Fprintf(h, "%s", n)
		for _, v := range m.files[n] {
			fmt.Fprintf(h, "!%d:%d:%d:%d", v.ver, v.size, v.crc, v.keep)
		}
	}
	return h.Sum32()
}

// merged returns one model holding every name of ms (namespaces are
// disjoint by construction).
func merged(ms ...*model) *model {
	out := newModel()
	for _, m := range ms {
		for n, s := range m.files {
			if _, dup := out.files[n]; dup {
				panic(fmt.Sprintf("fsdbench: name %q owned by two clients", n))
			}
			out.files[n] = s
		}
	}
	return out
}
