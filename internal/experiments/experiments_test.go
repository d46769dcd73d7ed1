package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// The experiments are exercised end-to-end by the root-level
// TestExperimentsRunAll; the tests here pin down the *shape* claims of
// individual tables at quick sizes.

func quickCfg() Config { return Config{Quick: true, Seed: 1} }

func cell(t Table, row, col int) string { return t.Rows[row][col] }

func cellFloat(tb testing.TB, t Table, row, col int) float64 {
	tb.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(t.Rows[row][col]), 64)
	if err != nil {
		tb.Fatalf("%s cell (%d,%d) = %q not numeric: %v", t.ID, row, col, t.Rows[row][col], err)
	}
	return v
}

func TestE1PolystoreWinsOverall(t *testing.T) {
	tab, err := E1PolystoreVsOneSize(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	last := len(tab.Rows) - 1
	if cell(tab, last, 0) != "TOTAL" {
		t.Fatalf("last row should be TOTAL: %v", tab.Rows[last])
	}
	poly := cellFloat(t, tab, last, 1)
	rel := cellFloat(t, tab, last, 2)
	kv := cellFloat(t, tab, last, 3)
	if poly >= rel || poly >= kv {
		t.Errorf("polystore should win the mixed workload: poly=%v rel=%v kv=%v", poly, rel, kv)
	}
	// The claimed shape: at least an order of magnitude against each.
	if rel/poly < 10 || kv/poly < 10 {
		t.Errorf("expected ≥10x: rel/poly=%.1f kv/poly=%.1f", rel/poly, kv/poly)
	}
}

func TestE2BinaryBeatsCSV(t *testing.T) {
	tab, err := E2CastBinaryVsCSV(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		binary := cellFloat(t, tab, i, 1)
		csv := cellFloat(t, tab, i, 2)
		if binary >= csv {
			t.Errorf("row %d: binary %.3fms should beat csv %.3fms", i, binary, csv)
		}
	}
}

// TestCastModesEquivalent checks E2's file-based reference lands the
// same copy as the direct binary cast it is timed against.
func TestCastModesEquivalent(t *testing.T) {
	p := core.New()
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("id", engine.TypeInt), engine.Col("name", engine.TypeString), engine.Col("age", engine.TypeInt)))
	for i, name := range []string{"alice", "bob", "carol"} {
		_ = rel.Append(engine.Tuple{engine.NewInt(int64(i + 1)), engine.NewString(name), engine.NewInt(int64(70 - 7*i))})
	}
	if err := p.Load(core.EnginePostgres, "patients", rel, core.CastOptions{}); err != nil {
		t.Fatal(err)
	}
	direct, err := p.Cast("patients", core.EngineSciDB, core.CastOptions{})
	if err != nil {
		t.Fatal(err)
	}
	csv, err := CastViaCSV(p, "patients", core.EngineSciDB, "patients_csv", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if direct.Rows != csv.Rows || direct.Rows != 3 {
		t.Errorf("cast modes rows: %d vs %d", direct.Rows, csv.Rows)
	}
	if direct.Bytes <= 0 || csv.Bytes <= 0 {
		t.Errorf("cast byte accounting: %d %d", direct.Bytes, csv.Bytes)
	}
	d1, err := p.Dump(direct.Target)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := p.Dump(csv.Target)
	if err != nil {
		t.Fatal(err)
	}
	if d1.String() != d2.String() {
		t.Errorf("cast modes produced different data:\n%s\nvs\n%s", d1, d2)
	}
}

func TestE3MeetsLatencyBudget(t *testing.T) {
	tab, err := E3StreamLatency(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		avgMicros := cellFloat(t, tab, i, 2)
		if avgMicros > 10_000 { // tens of ms budget = 10,000 µs ceiling
			t.Errorf("row %d: avg append latency %vµs exceeds tens-of-ms budget", i, avgMicros)
		}
		throughput := cellFloat(t, tab, i, 4)
		if throughput < 125 {
			t.Errorf("row %d: throughput %v below 125 Hz", i, throughput)
		}
	}
}

func TestE5FusedBeatsStaged(t *testing.T) {
	tab, err := E5TuplewareFusion(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		fused := cellFloat(t, tab, i, 1)
		staged := cellFloat(t, tab, i, 2)
		if fused >= staged {
			t.Errorf("row %d: fused %.3fms should beat staged %.3fms", i, fused, staged)
		}
	}
}

func TestE6MigrationHelps(t *testing.T) {
	tab, err := E6AdaptivePlacement(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	before := cellFloat(t, tab, 0, 2)
	after := cellFloat(t, tab, 1, 2)
	if after >= before {
		t.Errorf("post-migration workload should be faster: %.3f vs %.3f", after, before)
	}
	if !strings.Contains(tab.Rows[1][3], "migrated=true") {
		t.Errorf("advisor should have migrated: %v", tab.Rows[1])
	}
}

func TestE10DiagonalWins(t *testing.T) {
	tab, err := E10EngineSpecialisation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	winners := map[string]string{}
	for _, row := range tab.Rows {
		winners[row[0]] = row[4]
	}
	if winners["selective lookup"] != "postgres" {
		t.Errorf("lookup winner: %v", winners)
	}
	if winners["text search"] != "accumulo" {
		t.Errorf("text winner: %v", winners)
	}
	// The full grid must not have a single universal winner.
	distinct := map[string]bool{}
	for _, w := range winners {
		distinct[w] = true
	}
	if len(distinct) < 2 {
		t.Errorf("one engine won everything — contradicts the premise: %v", winners)
	}
}

func TestE11PushdownMovesLess(t *testing.T) {
	tab, err := E11CastPushdown(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Rows: full CAST, pushdown CAST, query planner off, query planner on.
	fullBytes := cellFloat(t, tab, 0, 2)
	pushedBytes := cellFloat(t, tab, 1, 2)
	if fullBytes/pushedBytes < 5 {
		t.Errorf("pushdown should move ≥5x fewer bytes: full=%v pushed=%v", fullBytes, pushedBytes)
	}
	fullRows := cellFloat(t, tab, 0, 1)
	pushedRows := cellFloat(t, tab, 1, 1)
	if pushedRows*10 != fullRows {
		t.Errorf("10%% selectivity expected: %v of %v rows moved", pushedRows, fullRows)
	}
	// The planner must not change the query answer (checked inside E11
	// too; this pins the reported row counts).
	if cell(tab, 2, 1) != cell(tab, 3, 1) {
		t.Errorf("planner changed result cardinality: %v vs %v", tab.Rows[2], tab.Rows[3])
	}
}

func TestTableString(t *testing.T) {
	tab := Table{
		ID: "EX", Title: "demo", Claim: "c",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  "n",
	}
	s := tab.String()
	for _, want := range []string{"EX", "demo", "paper claim", "a", "1", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table.String missing %q:\n%s", want, s)
		}
	}
}
