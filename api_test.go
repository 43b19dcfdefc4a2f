package graql_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graql"
)

func TestSubgraphVerticesAccessor(t *testing.T) {
	db := roadsDB(t)
	res := db.MustExec(`select * from graph City (country = 'US') --road--> City ( ) into subgraph us`)
	got := res[0].SubgraphVertices("city") // case-insensitive
	if len(got) != 3 {
		t.Fatalf("vertices = %v", got)
	}
	joined := strings.Join(got, ",")
	for _, want := range []string{"PDX", "SEA", "YVR"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %s in %v", want, got)
		}
	}
	if res[0].SubgraphVertices("nope") != nil {
		t.Error("unknown type must return nil")
	}
	// Table results have no subgraph vertices.
	res = db.MustExec(`select x.id from graph def x: City ( )`)
	if res[0].SubgraphVertices("City") != nil {
		t.Error("table result must return nil vertices")
	}
}

func TestTableWriteCSVAccessor(t *testing.T) {
	db := roadsDB(t)
	res := db.MustExec(`select x.id, x.population from graph def x: City (country = 'US') order by id asc`)
	var sb strings.Builder
	if err := res[0].Table().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "id,population\nPDX,650000\nSEA,750000\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
	// Empty table wrapper is a no-op.
	var empty graql.Table
	if err := empty.WriteCSV(&sb); err != nil {
		t.Errorf("zero table WriteCSV: %v", err)
	}
}

func TestValueAccessors(t *testing.T) {
	db := roadsDB(t)
	res := db.MustExec(`select x.id, x.population, x.founded from graph def x: City (id = 'PDX')`)
	tb := res[0].Table()
	if tb.Value(0, 0).Kind() != "varchar" {
		t.Errorf("kind = %s", tb.Value(0, 0).Kind())
	}
	if tb.Value(0, 1).Float64() != 650000 {
		t.Errorf("float = %v", tb.Value(0, 1).Float64())
	}
	if tb.Value(0, 2).Time().Year() != 1851 {
		t.Errorf("time = %v", tb.Value(0, 2).Time())
	}
	if tb.Value(0, 0).IsNull() {
		t.Error("id is not null")
	}
}

func TestWithBaseDirIngestAndOutput(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "cities.csv"), []byte("PDX,US,650000,1851-02-08\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := graql.Open(graql.WithBaseDir(dir))
	db.MustExec(`
create table Cities(id varchar(10), country varchar(2), population integer, founded date)
create vertex City(id) from table Cities
ingest table Cities cities.csv
select id, population from table Cities into table Pops
output table Pops pops.csv
`)
	data, err := os.ReadFile(filepath.Join(dir, "pops.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "PDX,650000") {
		t.Errorf("output csv = %q", data)
	}
}

func TestMustExecPanics(t *testing.T) {
	db := graql.Open()
	defer func() {
		if recover() == nil {
			t.Error("MustExec must panic on error")
		}
	}()
	db.MustExec(`select broken from table Missing`)
}

func TestExplainThroughPublicAPI(t *testing.T) {
	db := roadsDB(t)
	res := db.MustExec(`explain select B.id from graph City (id = 'PDX') --road--> def B: City ( )`)
	out := res[0].Table().String()
	if !strings.Contains(out, "scan") || !strings.Contains(out, "expand") {
		t.Errorf("explain output:\n%s", out)
	}
}

// TestWithClusterSim: the option sets the engine's one cluster transport,
// simulated partitions from two up and a nil interface, not a typed nil,
// below that.
func TestWithClusterSim(t *testing.T) {
	if d := graql.Open(graql.WithClusterSim(1, false)).Engine().Opts.Dist; d != nil {
		t.Errorf("WithClusterSim(1, false) set Dist %#v, want nil", d)
	}
	d := graql.Open(graql.WithClusterSim(3, true)).Engine().Opts.Dist
	if d == nil || d.Parts() != 3 || d.Strategy().String() != "block" {
		t.Errorf("WithClusterSim(3, true) set Dist %#v, want 3 block-placed partitions", d)
	}
}
