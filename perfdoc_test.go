package dragonfly_test

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestPerformanceTablesMatchBenchSim checks that the PERFORMANCE.md
// tables citing BENCH_sim.json quote its records: every row of the
// "Current numbers" table (cycles/sec, the bold allocs/cycle and the
// frozen baseline's values) and the 1K rows of the "Sharded engine"
// table (serial and sharded cycles/sec and the delta between them).
// Each number is compared at the precision the table shows, so a
// refreshed JSON with stale tables — or a hand-edited table — fails.
func TestPerformanceTablesMatchBenchSim(t *testing.T) {
	raw, err := os.ReadFile("BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench simBenchFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("BENCH_sim.json: %v", err)
	}
	doc, err := os.ReadFile("PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	cur := recordsByName(bench.Scenarios)
	base := map[string]simBenchRecord{}
	if bench.Baseline != nil {
		base = recordsByName(bench.Baseline.Scenarios)
	}

	rows := docTable(t, string(doc), "Current numbers", "| scenario")
	seen := map[string]bool{}
	for _, row := range rows {
		if len(row) != 3 {
			t.Errorf("Current numbers row %q: want 3 cells", row)
			continue
		}
		name := row[0]
		rec, ok := cur[name]
		if !ok {
			t.Errorf("Current numbers cites %q, which BENCH_sim.json does not record", name)
			continue
		}
		seen[name] = true
		baseRec, hasBase := base[name]
		for i, what := range [2]string{"allocs/cycle", "cycles/sec"} {
			b, c, shown := splitCell(row[1+i])
			v, bv := rec.CyclesPerSec, baseRec.CyclesPerSec
			if i == 0 {
				v, bv = rec.AllocsPerCyc, baseRec.AllocsPerCyc
				if !strings.HasPrefix(c, "**") || !strings.HasSuffix(c, "**") {
					t.Errorf("%s: allocs/cycle %q is not bold", name, c)
				}
				c = strings.Trim(c, "*")
			}
			checkShown(t, name+" "+what, v, c)
			switch {
			case shown && !hasBase:
				t.Errorf("%s: cites baseline %s %q, but the baseline has no such scenario", name, what, b)
			case !shown && hasBase:
				t.Errorf("%s: baseline %s missing from the table", name, what)
			case shown:
				checkShown(t, name+" baseline "+what, bv, b)
			}
		}
	}
	for _, rec := range bench.Scenarios {
		if !seen[rec.Name] {
			t.Errorf("Current numbers table has no row for %q", rec.Name)
		}
	}

	// Sharded engine table: each 1K row pairs a serial scenario with the
	// sharded one at the same load.
	covered := map[string]bool{}
	for _, row := range docTable(t, string(doc), "## Sharded engine", "| machine") {
		if !strings.HasPrefix(row[0], "1K-node") {
			continue
		}
		if len(row) != 5 {
			t.Errorf("Sharded engine row %q: want 5 cells", row)
			continue
		}
		load, err := strconv.ParseFloat(strings.Fields(row[1])[0], 64)
		if err != nil {
			t.Errorf("Sharded engine row %q: load: %v", row, err)
			continue
		}
		var serial, sharded *simBenchScenario
		for _, sc := range simBenchScenarios() {
			if sc.family != "" || sc.failGlobal != 0 || sc.load != load {
				continue
			}
			if sc.shards == 0 {
				serial = &sc
			} else {
				sharded = &sc
			}
		}
		if serial == nil || sharded == nil {
			t.Errorf("Sharded engine row %q: no serial and sharded scenario pair at load %g", row, load)
			continue
		}
		covered[sharded.name] = true
		ser, shd := cur[serial.name], cur[sharded.name]
		checkShown(t, serial.name+" (sharded table)", ser.CyclesPerSec, strings.TrimSuffix(row[2], " cyc/s"))
		want := fmt.Sprintf(" cyc/s (%d shards)", sharded.shards)
		if !strings.HasSuffix(row[3], want) {
			t.Errorf("%s: sharded cell %q does not end in %q", sharded.name, row[3], want)
		}
		checkShown(t, sharded.name+" (sharded table)", shd.CyclesPerSec, strings.TrimSuffix(row[3], want))
		delta := fmt.Sprintf("**%+.0f%%**", (shd.CyclesPerSec/ser.CyclesPerSec-1)*100)
		if row[4] != delta {
			t.Errorf("%s: delta %q, BENCH_sim.json gives %q", sharded.name, row[4], delta)
		}
	}
	for _, sc := range simBenchScenarios() {
		if sc.shards > 0 && sc.family == "" && !covered[sc.name] {
			t.Errorf("Sharded engine table has no 1K row for %q", sc.name)
		}
	}
}

// TestObsOverheadTableMatchesBenchSim checks PERFORMANCE.md's
// "Observability overhead" table against BENCH_sim.json's obs_overhead
// section: one row per record, named by its variant, with ns/cycle in
// thousands, the change against the "off" record, and allocs/cycle,
// each at the precision the table shows.
func TestObsOverheadTableMatchesBenchSim(t *testing.T) {
	raw, err := os.ReadFile("BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench simBenchFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("BENCH_sim.json: %v", err)
	}
	doc, err := os.ReadFile("PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	recs := recordsByName(bench.ObsOverhead)
	off, ok := recs["off"]
	if !ok {
		t.Fatal(`BENCH_sim.json: obs_overhead has no "off" record`)
	}
	rows := docTable(t, string(doc), "## Observability overhead", "| variant")
	for _, row := range rows {
		if len(row) != 5 {
			t.Errorf("Observability overhead row %q: want 5 cells", row)
			continue
		}
		name := strings.Trim(row[0], "`")
		rec, ok := recs[name]
		if !ok {
			t.Errorf("Observability overhead cites %q, which BENCH_sim.json does not record", name)
			continue
		}
		delete(recs, name)
		checkShown(t, name+" ns/cycle (k)", rec.NsPerCycle/1000, strings.TrimSuffix(row[2], "k"))
		delta := "—"
		if name != "off" {
			delta = fmt.Sprintf("%+.0f%%", (rec.NsPerCycle/off.NsPerCycle-1)*100)
		}
		if row[3] != delta {
			t.Errorf("%s: vs off %q, BENCH_sim.json gives %q", name, row[3], delta)
		}
		checkShown(t, name+" allocs/cycle", rec.AllocsPerCyc, row[4])
	}
	for name := range recs {
		t.Errorf("Observability overhead table has no row for %q", name)
	}
}

func recordsByName(recs []simBenchRecord) map[string]simBenchRecord {
	m := make(map[string]simBenchRecord, len(recs))
	for _, r := range recs {
		m[r.Name] = r
	}
	return m
}

// docTable returns the trimmed cells of the body rows of the first
// Markdown table after the line containing anchor whose header line
// starts with header.
func docTable(t *testing.T, doc, anchor, header string) [][]string {
	t.Helper()
	i := strings.Index(doc, anchor)
	if i < 0 {
		t.Fatalf("PERFORMANCE.md: no %q", anchor)
	}
	lines := strings.Split(doc[i:], "\n")
	start := -1
	for j, l := range lines {
		if strings.HasPrefix(l, header) {
			start = j
			break
		}
	}
	if start < 0 {
		t.Fatalf("PERFORMANCE.md: no table %q after %q", header, anchor)
	}
	var rows [][]string
	for _, l := range lines[start+2:] { // skip the header and separator
		if !strings.HasPrefix(l, "|") {
			break
		}
		cells := strings.Split(strings.Trim(l, "|"), "|")
		for k := range cells {
			cells[k] = strings.TrimSpace(cells[k])
		}
		rows = append(rows, cells)
	}
	if len(rows) == 0 {
		t.Fatalf("PERFORMANCE.md: table %q after %q is empty", header, anchor)
	}
	return rows
}

// splitCell splits a "baseline → current" cell; a cell without an
// arrow shows only the current value.
func splitCell(cell string) (base, cur string, hasBase bool) {
	b, c, ok := strings.Cut(cell, "→")
	if !ok {
		return "", cell, false
	}
	return strings.TrimSpace(b), strings.TrimSpace(c), true
}

// checkShown fails unless shown is v rounded to shown's own number of
// decimal places.
func checkShown(t *testing.T, what string, v float64, shown string) {
	t.Helper()
	decimals := 0
	if _, frac, ok := strings.Cut(shown, "."); ok {
		decimals = len(frac)
	}
	if want := strconv.FormatFloat(v, 'f', decimals, 64); shown != want {
		t.Errorf("%s: PERFORMANCE.md shows %q, BENCH_sim.json gives %q", what, shown, want)
	}
}
