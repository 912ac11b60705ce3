package cedarfs

import (
	"bytes"
	"cmp"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// An archRule holds one decision DESIGN.md makes once. A use row bans every
// occurrence (call, reference, type or declaration) of a name whose rendered
// dotted form (v.nt.Get, disk.DamagedError) matches use, in its scope, outside
// its allow list; a must row requires fn to call must. Every row carries a
// plant, a source under a pretend path that the row must flag.
type archRule struct {
	design, msg string    // the DESIGN.md section that gives the reason; the failure message
	use         string    // regexp over a rendered name
	call        bool      // match only where the name is called
	in          []string  // files or package dirs in scope; "." is every file
	tests       bool      // _test.go files are in scope
	fn          string    // ban only inside this function; with must, the caller
	allow       []string  // functions ("(*Volume).copied"), files or dirs
	argOf       []string  // allow inside a func literal passed to these
	must        string    // fn must call this
	plant       [2]string // pretend path, source
}

var everywhere, inCore = []string{"."}, []string{"internal/core"}

var archRules = []archRule{
	// Retired names and second paths, banned everywhere.
	{design: "§11", msg: "deprecated accessor resurfaced (use Stats() / Replay)",
		use: `\.RecoverDry$|(v|vol)\.(Ops|CacheStats|FaultStats)$`, call: true, in: everywhere, tests: true,
		plant: [2]string{"cmd/fsdctl/plant.go", "package main; func f() { v.CacheStats() }"}},
	{design: "§13", msg: "a deleted wrapper or *Async mutation twin resurfaced (use Mount options / core's mutate)",
		use: `(^|\.)(MountReadOnly|MountOrSalvage|(create|touch|setKeep|delete|rename|extend|contract|setByteSize)(Class)?Async)$`, in: everywhere, tests: true,
		plant: [2]string{"internal/core/plant.go", "package core; func (v *Volume) deleteAsync() {}"}},
	{design: "§17", msg: "parscan.Start resurfaced (one driver reads in address order, parscan.Run checks the buffers)",
		use: `parscan\.Start$`, in: everywhere, tests: true, plant: [2]string{"internal/core/plant.go", "package core; func f() { parscan.Start(2) }"}},
	{design: "§13", msg: "a deleted knob, package or formula harness resurfaced (publish a measured run, DESIGN §13)",
		use: `(^|\.)(SerialMonitor|ReadOneCopy|fscache|ConcurrencyReportRun|AsyncReportRun)$`, in: everywhere, tests: true,
		plant: [2]string{"internal/fscache/cache.go", "package fscache"}},
	{design: "§12", msg: "a retired ledger resurfaced (take the held set from bufcache.Held, the group from commitGroup, ask leaderNotHome)",
		use: `(^|\.)(heldSpans|noteHeld|HeldRange|freshRuns|groupPlace|leaderHeld)$`, in: everywhere, tests: true,
		plant: [2]string{"internal/core/plant.go", "package core; func (v *Volume) writeChunk() { v.noteHeld(0, 1) }"}},
	{design: "§11", msg: "a retired emitter, gauge or growOnly resurfaced (emit through Volume.trace, grow through WriteAt)",
		use: `(^|\.)(traceCache|traceData|traceReadAhead|traceCoalesce|traceScrub|queueDepth|growOnly|Gauge)$`, in: everywhere, tests: true,
		plant: [2]string{"internal/obs/plant.go", "package obs; type Gauge struct{}"}},
	{design: "§12", msg: "a cross-run merge resurfaced (walk the run table with Entry.ContiguousFrom; alloc.Join keeps it merged)",
		use: `(^|\.)(PhysContiguousFrom|NoteCoalescedRead|NoteCoalescedWrite|EvCoalesce|CoalescedWrites)$`, in: everywhere, tests: true,
		plant: [2]string{"internal/core/plant.go", "package core; var _ = obs.EvCoalesce"}},
	{design: "§15", msg: "salvage's readPast resurfaced (read past damage with disk.ReadPast)",
		use: `(^|\.)readPast$`, in: everywhere, tests: true, plant: [2]string{"internal/core/salvage.go", "package core; func readPast() {}"}},
	{design: "§3.1", msg: "the wall-clock ticker resurfaced (drive group commit with MaybeForce/Tick on the virtual clock)",
		use: `(^|\.)(RealClock|NewRealClock|RealTimeScale|startTicker|startScrubber|stopTicker)$`, in: everywhere, tests: true,
		plant: [2]string{"internal/sim/plant.go", "package sim; type RealClock struct{}"}},
	{design: "§13", msg: "a Synchronous config field resurfaced (use a negative GroupCommitInterval)",
		use: `(^|\.)Synchronous$`, in: everywhere, tests: true, plant: [2]string{"internal/core/plant.go", "package core; var _ = Config{Synchronous: true}"}},
	{design: "§13", msg: "SetDetached outside the intent applier and Table 5 (measure on the clock instead)",
		use: `SetDetached$`, in: everywhere, tests: true, allow: []string{"internal/sim", "internal/core/intent.go", "internal/bench/tables.go"},
		plant: [2]string{"internal/bench/plant.go", "package bench; func f(c *sim.CPU) { c.SetDetached(true) }"}},
	{design: "§11", msg: "a per-record -<name>-json flag resurfaced in benchtab (register the record in bench.Records)",
		use: `^"[[:alnum:]]+-json"$`, in: []string{"cmd/benchtab"}, tests: true,
		plant: [2]string{"cmd/benchtab/plant.go", `package main; var _ = flag.String("tables-json", "", "")`}},
	{design: "§11", msg: "a per-record Write<Name>JSON resurfaced in internal/bench (Record.Write writes every record)",
		use: `(^|\.)Write[[:alnum:]]+JSON$`, in: []string{"internal/bench"}, tests: true,
		plant: [2]string{"internal/bench/plant.go", "package bench; func WriteTablesJSON() {}"}},
	{design: "§6", msg: "core keeps per-third state again (the log keeps the thirds table: write home what Log.Due lists, ask Log.Logged)",
		use: `(^|\.)(lastThird|leaderThird|OnLogged|allThirds|flushAll)$`, in: inCore, tests: true,
		plant: [2]string{"internal/core/plant.go", "package core; type ntPage struct{ lastThird [4]int }"}},
	{design: "§18", msg: "a joined/padded staging buffer resurfaced in internal/core (pass a gather list to writeSectorsFrom)",
		use: `(^|\.)(joined|padded)$`, in: inCore, tests: true,
		plant: [2]string{"internal/core/plant.go", "package core; func f(a, b []byte) { joined := append(a, b...); _ = joined }"}},

	// One log walker, one replay.
	{design: "§3.3", msg: "a record header or end page is decoded outside wal's walk (read the log through walk)",
		use: `(decodeHeader|validEnd)$`, in: []string{"internal/wal"}, allow: []string{"(*Log).walk", "decodeHeader", "validEnd"},
		plant: [2]string{"internal/wal/plant.go", "package wal; func (l *Log) scan(b []byte) { decodeHeader(b) }"}},
	{design: "§3.3", msg: "Log.Recover resurfaced (Replay, the home writes, then CompleteRecovery)",
		use: `\.Recover$`, in: []string{"internal/wal"}, tests: true, plant: [2]string{"internal/wal/plant_test.go", "package wal; func f(l *Log) { l.Recover() }"}},
	{design: "§8", msg: "the log is replayed outside replayScan (replay in the mount scan, under the decode)",
		use: `\.[Rr]eplay$`, in: inCore, allow: []string{"(*Volume).replayScan"},
		plant: [2]string{"internal/core/plant.go", "package core; func (v *Volume) mountWritable() { v.log.Replay() }"}},

	// A check pass: one reader, in head order, its CPU on the overlapped lane.
	{design: "§17", msg: "a check pass takes BalancedCPU() into its own hands again (run it through parscan.Overlap)",
		use: `BalancedCPU$`, in: []string{"internal/core/salvage.go", "internal/core/verify.go", "internal/core/ntsweep.go"},
		plant: [2]string{"internal/core/ntsweep.go", "package core; func f(p *parscan.Pool) { v.cpu.Charge(p.BalancedCPU()) }"}},
	{design: "§17", msg: "scrub or mount reads a pool's TotalCPU() again (the checks ride parscan.Overlap's lane)",
		use: `TotalCPU$`, in: []string{"internal/core/scrub.go", "internal/core/volume.go"},
		plant: [2]string{"internal/core/scrub.go", "package core; func f() { v.cpu.Charge(st.TotalCPU()) }"}},
	{design: "§17", msg: "mountScan runs a pool after the sweep again (pass the per-page work to sweepNT)",
		use: `parscan\.Run$|(Balanced|Total|Max)CPU$`, in: inCore, fn: "(*Volume).mountScan",
		plant: [2]string{"internal/core/volume.go", "package core; func (v *Volume) mountScan() { parscan.Run(2, 1, nil) }"}},
	{design: "§17", msg: "a check pass reads outside issueByPosition's order (read leaders through readLeaders)",
		use: `^read$|ReadSectors(Into)?$|ReadSectorsRetry(Into)?$|readSectorsRetry(Into)?$`, call: true,
		in: []string{"internal/core/verify.go", "internal/core/scrub.go"}, allow: []string{"(*Volume).scrubRoots", "(*Volume).scrubNTPage", "(*Volume).scrubLeader", "(*Volume).readSectorsRetry", "(*Volume).readSectorsRetryInto"},
		argOf: []string{"issueByPosition", "readLeaders", "sweepLeaders"},
		plant: [2]string{"internal/core/verify.go", "package core; func (v *Volume) readLeaders(refs []int, read func(int)) { for _, r := range refs { read(r) } }"}},
	{design: "§17", msg: "readLeaders no longer issues its reads through issueByPosition",
		in: inCore, fn: "(*Volume).readLeaders", must: "issueByPosition",
		plant: [2]string{"internal/core/verify.go", "package core; func (v *Volume) readLeaders() {}"}},
	{design: "§17", msg: "core asks where the head will be outside issueByPosition (order requests through issueByPosition)",
		use: `\.(ArrivalAngle|PositionTime)$`, in: inCore, allow: []string{"(*Volume).issueByPosition"},
		plant: [2]string{"internal/core/plant.go", "package core; func (v *Volume) sortRefs() { v.d.PositionTime(0) }"}},

	// The data path: one copy charge, one way out, one lookup, one growth.
	{design: "§12", msg: "CostPerSectorCopy charged outside Volume.copied (charge a data copy through copied)",
		use: `CostPerSectorCopy\w*$`, in: inCore, allow: []string{"(*Volume).copied"},
		plant: [2]string{"internal/core/plant.go", "package core; func (v *Volume) readLocked() { v.cpu.Charge(sim.CostPerSectorCopy) }"}},
	{design: "§12", msg: "file data written outside writeChunk and the held pass (write through writeChunk)",
		use: `(writeSectorsFrom|WriteSectorsRetryFrom|WriteSectorsFrom|\.d\.WriteSectors)$`, in: inCore,
		allow: []string{"(*Volume).writeChunk", "(*Volume).writeHeld", "(*Volume).writeSectorsFrom", "(*Volume).writeSectors"},
		plant: [2]string{"internal/core/plant.go", "package core; func (v *Volume) writeFrom() { v.d.WriteSectors(0, nil) }"}},
	{design: "§12", msg: "file data written outside writeChunk and the held pass (write through writeChunk)",
		use: `writeSectors$`, in: []string{"internal/core/file.go", "internal/core/held.go", "internal/core/bytes.go", "internal/core/stream.go"},
		allow: []string{"(*Volume).writeChunk", "(*Volume).writeHeld"},
		plant: [2]string{"internal/core/stream.go", "package core; func (v *Volume) writeFrom() { v.writeSectors(0, nil) }"}},
	{design: "§13", msg: "a name-table Get outside an explicit-version lookup (find the newest with newestLocked)",
		use: `\.nt\.Get$`, in: inCore, allow: []string{"(*Volume).statLocked", "(*Volume).applyStep"},
		plant: [2]string{"internal/core/plant.go", "package core; func (v *Volume) Stat(k []byte) { v.nt.Get(k) }"}},
	{design: "§12", msg: "the FS adapter or the stream writer extends before it writes (WriteAt grows the file)",
		use: `\.Extend$`, in: []string{"localfs.go", "internal/core/stream.go"},
		plant: [2]string{"localfs.go", "package cedarfs; func (h *localHandle) WriteAt() { h.f.Extend(1) }"}},
	{design: "§3.5", msg: "al.Extend called outside File.allocGrowth (grow through allocGrowth)",
		use: `al\.Extend$`, in: inCore, allow: []string{"(*File).allocGrowth"},
		plant: [2]string{"internal/core/plant.go", "package core; func (f *File) Extend(n int) { f.v.al.Extend(nil, n) }"}},
	{design: "§3.5", msg: "createClass allocates outside placeCreate (take a create's pages from placeCreate)",
		use: `\.(al|vm)\.[[:alnum:]]+$`, in: inCore, fn: "(*Volume).createClass",
		plant: [2]string{"internal/core/file.go", "package core; func (v *Volume) createClass() { v.placeCreate(1, true); v.al.Alloc(1) }"}},
	{design: "§3.5", msg: "createClass no longer places through placeCreate",
		in: inCore, fn: "(*Volume).createClass", must: "placeCreate",
		plant: [2]string{"internal/core/file.go", "package core; func (v *Volume) createClass() {}"}},

	// One hook per fault, one bring-up, one emitter.
	{design: "§15", msg: "a read-retry counter bumped outside noteReadFault (report the read through noteReadFault)",
		use: `faults\.(retries|retriedOK)\.(Add|Store|Swap|CompareAndSwap)$`, in: inCore, allow: []string{"(*Volume).noteReadFault"},
		plant: [2]string{"internal/core/plant.go", "package core; func (v *Volume) readRoot() { v.faults.retriedOK.Add(1) }"}},
	{design: "§15", msg: "a device read outside the single-pass readers (read through readSectorsRetryInto)",
		use: `\.ReadSectors(Into)?$`, in: inCore, allow: []string{"(*Volume).sweepNT", "(*Volume).homeTable", "(*Volume).scrubLeaders", "internal/core/faultexp.go"},
		plant: [2]string{"internal/core/plant.go", "package core; func (v *Volume) readCopies() { v.d.ReadSectors(0, 1) }"}},
	{design: "§15", msg: "a DamagedError caught in core outside the write classifier and Retryable (read past damage with disk.ReadPast)",
		use: `disk\.DamagedError$`, in: inCore, allow: []string{"(*Volume).noteWriteFault", "(*Volume).queueConfig"},
		plant: [2]string{"internal/core/plant.go", "package core; func f(err error) bool { var de *disk.DamagedError; return errors.As(err, &de) }"}},
	{design: "§15", msg: "a WAL device read outside readData, the audit's run read and scrubAnchor (read a span past damage, once)",
		use: `(\.ReadSectors(Into)?|ReadSectorsRetry(Into)?|\.VerifyRead)$`, in: []string{"internal/wal"}, allow: []string{"(*Log).readData", "(*Log).scrubAnchor", "(*logRuns).load"},
		plant: [2]string{"internal/wal/plant.go", "package wal; func (l *Log) readRecord() { l.d.ReadSectors(0, 1) }"}},
	{design: "§15", msg: "startIntentQueue or finishMount called outside goLive (end the bring-up in goLive)",
		use: `(startIntentQueue|finishMount)$`, in: inCore, allow: []string{"(*Volume).goLive", "(*Volume).startIntentQueue", "(*Volume).finishMount"},
		plant: [2]string{"internal/core/plant.go", "package core; func Salvage(v *Volume) {\n\tv.startIntentQueue()\n}"}},
	{design: "§11", msg: "a trace event emitted outside Volume.trace (build the event and pass it to v.trace)",
		use: `tracer\.Emit$`, in: inCore, tests: true, allow: []string{"(*Volume).trace"},
		plant: [2]string{"internal/core/plant_test.go", "package core; func f(v *Volume) { v.tracer.Emit(obs.Event{}) }"}},
}

// An occ is one occurrence of a name in a file. A string literal is a name
// too, in its quoted form, so only a rule that spells the quotes matches one.
type occ struct {
	name  string
	line  int
	fn    string   // the enclosing top-level function, "" outside one
	call  bool     // the name is the function of a call
	argOf []string // the callees of the func literals around it
}

type goFile struct {
	path  string   // slash-separated, relative to the repository root
	occs  []occ    // in source order
	funcs []string // the functions and methods the file declares
}

// render prints an expression the way a rule spells a name: a selector chain
// dotted, a pointer receiver as (*T), anything else as "_".
func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "(*" + render(e.X) + ")"
	}
	return "_"
}

func lastName(s string) string { return s[strings.LastIndex(s, ".")+1:] }

// parseGo lists every name occurrence in one file: each identifier that is
// not a selector's field, each selector chain (so v.nt.Get and v.nt both), and
// each literal. A function's own name counts as inside it.
func parseGo(fset *token.FileSet, path string, src []byte) (*goFile, error) {
	f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	g := &goFile{path: path}
	stack, fn := []ast.Node{nil}, ""
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		parent := stack[len(stack)-1]
		stack = append(stack, n)
		if _, top := parent.(*ast.File); top {
			fn = ""
			if d, ok := n.(*ast.FuncDecl); ok {
				if fn = d.Name.Name; d.Recv != nil {
					fn = render(d.Recv.List[0].Type) + "." + fn
				}
				g.funcs = append(g.funcs, fn)
			}
		}
		o := occ{fn: fn}
		switch n := n.(type) {
		case *ast.BasicLit:
			o.name = n.Value
		case *ast.Ident:
			if s, ok := parent.(*ast.SelectorExpr); ok && s.Sel == n {
				return true
			}
			o.name = n.Name
		case *ast.SelectorExpr:
			o.name = render(n)
		default:
			return true
		}
		c, _ := parent.(*ast.CallExpr)
		o.call = c != nil && c.Fun == n
		for i := 2; i < len(stack); i++ {
			c, _ := stack[i-1].(*ast.CallExpr)
			if _, lit := stack[i].(*ast.FuncLit); lit && c != nil && c.Fun != stack[i] {
				o.argOf = append(o.argOf, render(c.Fun))
			}
		}
		o.line = fset.Position(n.Pos()).Line
		g.occs = append(g.occs, o)
		return true
	})
	return g, nil
}

func under(p, scope string) bool {
	return scope == "." || p == scope || strings.HasPrefix(p, scope+"/")
}

func isPath(a string) bool { return strings.Contains(a, "/") || strings.HasSuffix(a, ".go") }

func (r *archRule) covers(p string) bool {
	return (r.tests || !strings.HasSuffix(p, "_test.go")) &&
		!slices.ContainsFunc(r.allow, func(a string) bool { return isPath(a) && under(p, a) }) &&
		slices.ContainsFunc(r.in, func(s string) bool { return under(p, s) })
}

// findings lists what the row flags in files.
func (r *archRule) findings(files []*goFile) (out []string) {
	re := regexp.MustCompile(r.use)
	for _, g := range files {
		if !r.covers(g.path) {
			continue
		}
		if r.must != "" && slices.Contains(g.funcs, r.fn) && !slices.ContainsFunc(g.occs, func(o occ) bool {
			return o.fn == r.fn && o.call && lastName(o.name) == r.must
		}) {
			out = append(out, fmt.Sprintf("%s: %s does not call %s", g.path, r.fn, r.must))
		}
		for _, o := range g.occs {
			if r.must == "" && (o.call || !r.call) && (r.fn == "" || o.fn == r.fn) && !slices.Contains(r.allow, o.fn) &&
				!slices.ContainsFunc(o.argOf, func(c string) bool { return slices.Contains(r.argOf, lastName(c)) }) &&
				re.MatchString(o.name) {
				out = append(out, fmt.Sprintf("%s:%d: %s", g.path, o.line, o.name))
			}
		}
	}
	return out
}

// stale lists each file, dir or function the row names that the repository
// no longer has: a rename would otherwise switch the rule off without a word.
// fn, must and an allowed function must be declared in a file the row covers,
// so moving fn out of the row's scope fails here too; an argOf callee anywhere.
func (r *archRule) stale(files []*goFile) (out []string) {
	has := func(keep func(*goFile) bool) bool { return slices.ContainsFunc(files, keep) }
	declares := func(g *goFile, n string) bool {
		return slices.ContainsFunc(g.funcs, func(f string) bool { return f == n || lastName(f) == n })
	}
	names := []string{r.fn, r.must}
	for _, s := range slices.Concat(r.in, r.allow) {
		if !isPath(s) && s != "." {
			names = append(names, s)
		} else if !has(func(g *goFile) bool { return under(g.path, s) }) {
			out = append(out, "no file "+s)
		}
	}
	for _, n := range slices.Concat(names, r.argOf) {
		anywhere := slices.Contains(r.argOf, n)
		if n != "" && !has(func(g *goFile) bool { return (anywhere || r.covers(g.path)) && declares(g, n) }) {
			out = append(out, "no function "+n)
		}
	}
	return out
}

// staleRunNames lists each name in script's -run '…' patterns that matches
// no Test function among funcs: go test exits 0 on a -run that matches
// nothing. A pattern that matches the empty name ('^$') runs none on purpose.
func staleRunNames(script string, funcs []string) (out []string) {
	for _, m := range regexp.MustCompile(`-run '([^']*)'`).FindAllStringSubmatch(script, -1) {
		for _, name := range strings.Split(m[1], "|") {
			re, err := regexp.Compile(name)
			if err != nil || !re.MatchString("") && !slices.ContainsFunc(funcs, func(f string) bool {
				return strings.HasPrefix(f, "Test") && re.MatchString(f)
			}) {
				out = append(out, name)
			}
		}
	}
	return out
}

func gofmtClean(src []byte) bool {
	out, err := format.Source(src)
	return err == nil && bytes.Equal(out, src)
}

// TestArchRules parses every Go file in the repository once, benchmarks/
// included, and holds each archRules row on it: no finding, nothing the row
// names gone missing, and its plant flagged. The same walk is the gofmt gate,
// and each -run name in scripts/verify.sh must name a test.
func TestArchRules(t *testing.T) {
	fset := token.NewFileSet()
	var files []*goFile
	var tests []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && d.Name() == ".git" {
			return cmp.Or(err, filepath.SkipDir)
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasPrefix(d.Name(), ".") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if !gofmtClean(src) {
			t.Errorf("%s: gofmt would reformat it (run gofmt -w)", p)
		}
		g, err := parseGo(fset, filepath.ToSlash(p), src)
		if err == nil && strings.HasSuffix(p, "_test.go") {
			tests = append(tests, g.funcs...)
		}
		files = append(files, g)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range archRules {
		for _, s := range r.stale(files) {
			t.Errorf("stale rule (DESIGN %s, %q): %s", r.design, r.msg, s)
		}
		for _, f := range r.findings(files) {
			t.Errorf("%s: %s (DESIGN %s)", f, r.msg, r.design)
		}
		g, err := parseGo(fset, r.plant[0], []byte(r.plant[1]))
		if err != nil || len(r.findings([]*goFile{g})) == 0 {
			t.Errorf("rule %q does not flag its plant %s (%v)", r.msg, r.plant[0], err)
		}
	}
	script, err := os.ReadFile("scripts/verify.sh")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range staleRunNames(string(script), tests) {
		t.Errorf("scripts/verify.sh: -run name %q matches no test", name)
	}
	// The gates' own plants: an unformatted file, a rename, a function moved
	// out of its row's files, a -run typo.
	if gofmtClean([]byte("package p\nfunc  f() {}\n")) {
		t.Error("the gofmt gate passes an unformatted source")
	}
	if gone := (&archRule{in: []string{"internal/core/renamed.go"}, fn: "(*Volume).renamed"}).stale(files); len(gone) != 2 {
		t.Errorf("a row naming a missing file and function: stale reports %q, want 2", gone)
	}
	moved := &archRule{in: []string{"internal/core/volume.go"}, fn: "(*Volume).createClass", must: "goLive"}
	if gone := moved.stale(files); !slices.Equal(gone, []string{"no function (*Volume).createClass"}) {
		t.Errorf("a must row whose fn sits outside its files: stale reports %q", gone)
	}
	if got := staleRunNames("go test -run 'TestArchRules|TestNoSuchTest'", tests); !slices.Equal(got, []string{"TestNoSuchTest"}) {
		t.Errorf("a -run name with no test: reported %q, want [TestNoSuchTest]", got)
	}
}
