package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Report is the body of one BENCH file. It renders as the tables benchtab
// prints, so what is printed and what is written come from one run.
type Report interface {
	Render() []Table
}

// Record is one committed BENCH_<Name>.json at the repo root.
type Record struct {
	// Name is the record's benchtab -table name.
	Name string
	// Run performs the experiment once and returns the report.
	Run func() (Report, error)
	// Wall lists the JSON keys, at any depth, whose values are wall-clock
	// time or decided by the scheduler. Every other field is simulated time,
	// a count or text, and a rerun reproduces it exactly.
	Wall []string
	// Parts are the tables a TablesRecord is made of, in order; benchtab
	// -table <part name> runs and prints one alone.
	Parts []Part
}

// Part is one table of a TablesRecord.
type Part struct {
	Name string
	Run  func() (Table, error)
}

// File is the record's file name at the repo root.
func (r Record) File() string { return "BENCH_" + r.Name + ".json" }

// Write records rep at dir/File().
func (r Record) Write(dir string, rep Report) error {
	return writeJSON(filepath.Join(dir, r.File()), rep)
}

// Records is every BENCH file benchtab regenerates, in printing order.
// BENCH_server.json is the one root record not here: cmd/soak writes it, and
// every number in it is wall clock.
var Records = []Record{
	tableList("tables", tablesClock,
		Part{"hw", Hardware},
		Part{"1", Table1},
		Part{"2", Table2},
		Part{"3", Table3},
		Part{"4", Table4},
		Part{"5", Table5},
		Part{"gc", GroupCommit},
		Part{"model", ModelValidation},
		Part{"recovery", Recovery},
		Part{"recovery", RecoveryScaling},
	),
	{Name: "faultpath", Run: func() (Report, error) { return FaultPathReportRun() }},
	{Name: "robustness", Run: func() (Report, error) { return RobustnessReportRun() }},
	{Name: "crashsweep", Run: func() (Report, error) { return CrashSweepReportRun() },
		Wall: []string{"states_per_sec", "elapsed_wall_s"}},
	{Name: "nestedcrash", Run: func() (Report, error) { return NestedCrashReportRun() },
		Wall: []string{"inner_states_per_sec", "elapsed_wall_s"}},
	{Name: "pfsck", Run: func() (Report, error) { return PFsckReportRun() },
		Wall: []string{"steals"}},
	{Name: "datapath", Run: func() (Report, error) { return DataPathReportRun() }},
	tableList("ablations", ablationsClock,
		Part{"ablations", AblationCommitInterval},
		Part{"ablations", AblationThirds},
		Part{"ablations", AblationDoubleWrite},
		Part{"ablations", AblationPlacement},
		Part{"ablations", AblationAllocator},
		Part{"ablations", AblationLogSize},
	),
}

// TablesRecord is a record that is a list of tables, exactly as benchtab
// prints them: BENCH_tables.json holds the paper's own (the hardware, Tables
// 1–5, group commit §5.4, the model §6 and recovery §7), BENCH_ablations.json
// the six design ablations.
type TablesRecord struct {
	Clock  string  `json:"clock"`
	Tables []Table `json:"tables"`
}

// Render returns the tables.
func (rec TablesRecord) Render() []Table { return rec.Tables }

// tableList is the record of parts run in order.
func tableList(name, clock string, parts ...Part) Record {
	return Record{Name: name, Parts: parts, Run: func() (Report, error) {
		rec := TablesRecord{Clock: clock}
		for _, p := range parts {
			t, err := p.Run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name, err)
			}
			rec.Tables = append(rec.Tables, t)
		}
		return rec, nil
	}}
}

// tablesClock names the clock of every number in BENCH_tables.json.
const tablesClock = "our times are simulated on the virtual clock (ms or s, as the header or cell says; Table 5's percentages are shares of simulated elapsed time); Hardware lists the simulated drive's parameters; paper columns are the paper's published figures; everything else is a count or a ratio of counts"

// ablationsClock names the clock of every number in BENCH_ablations.json.
const ablationsClock = "seek time, elapsed (ms): simulated on the virtual clock; avg usable fraction: the formula (2k-1)/2k for k log divisions; everything else is a count or a label"

// writeJSON records a report at path: indented, newline-terminated, so
// successive runs diff line by line. Each report carries a top-level "clock"
// key saying which of its numbers are simulated time, wall-clock time or
// counts.
func writeJSON(path string, rep any) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
