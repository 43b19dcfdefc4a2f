package exec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"graql/internal/obs"
)

// tableParFiles generates a CSV of the given row count; tableParRows of
// them span three filter morsels, so with a forced threshold of 1 every
// relational operator with a parallel form fans out.
func tableParFiles(rows int) map[string]string {
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "k%d,%d,%.2f,s%d\n", i, i%251, float64(i)*0.25, i%13)
	}
	return map[string]string{"tp.csv": sb.String()}
}

const tableParRows = 10000

const tableParSchema = `
create table TP(id varchar(12), k integer, v float, s varchar(8))
ingest table TP tp.csv
`

func tableParEngine(t *testing.T, workers, threshold int, files map[string]string) *Engine {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = workers
	opts.ParallelThreshold = threshold
	opts.FileOpener = memFS(files)
	opts.Obs = obs.New()
	e := New(opts)
	mustExec(t, e, tableParSchema, nil)
	return e
}

// TestTableSelectParallelMatchesSerial: the full relational pipeline
// (filter, group-by, order-by) run through the engine on the parallel
// path must produce exactly the serial engine's rows, and the
// parallel-operator counter must record each fanned-out operator.
func TestTableSelectParallelMatchesSerial(t *testing.T) {
	files := tableParFiles(tableParRows)
	const q = `select s, count(*) as n, sum(v) as sv, min(k) as mn
from table TP where k > 10 group by s order by sv desc, s asc`

	serial := tableParEngine(t, 1, 1, files)
	parallel := tableParEngine(t, 4, 1, files)

	want := tableRows(t, mustExec(t, serial, q, nil))
	got := tableRows(t, mustExec(t, parallel, q, nil))
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("parallel rows != serial rows\nserial:   %v\nparallel: %v", want, got)
	}

	if c := serial.Opts.Obs.Counter("graql_tableops_parallel_total", ""); c.Value() != 0 {
		t.Errorf("serial engine recorded %d parallel table ops, want 0", c.Value())
	}
	// filter and sort took the parallel path; group-by has no parallel
	// form since the typed serial one beat it (EXPERIMENTS.md E18).
	if c := parallel.Opts.Obs.Counter("graql_tableops_parallel_total", ""); c.Value() < 2 {
		t.Errorf("parallel engine recorded %d parallel table ops, want >= 2", c.Value())
	}
}

// TestTableSelectThresholdKeepsSerialPath: with the default threshold a
// small table stays on the serial operators even under many workers.
func TestTableSelectThresholdKeepsSerialPath(t *testing.T) {
	e := tableParEngine(t, 8, 0, tableParFiles(100))
	mustExec(t, e, `select s, count(*) as n from table TP where k > 1 group by s order by s asc`, nil)
	if c := e.Opts.Obs.Counter("graql_tableops_parallel_total", ""); c.Value() != 0 {
		t.Errorf("small input took the parallel path %d times, want 0", c.Value())
	}
}

// TestExplainAnalyzeParallelAnnotation: plan spans carry the parallel
// annotation exactly when the operator fanned out, with the worker count
// the pool used — three filter morsels keep three of four workers busy,
// the sort of 13 groups cuts one run per worker — and an operator with
// one shard to hand out is neither annotated nor counted.
func TestExplainAnalyzeParallelAnnotation(t *testing.T) {
	files := tableParFiles(tableParRows)
	const q = `explain analyze select s, count(*) as n from table TP where k > 10 group by s order by n desc`

	rows := analyzeRows(t, tableParEngine(t, 4, 1, files), q)
	for action, want := range map[string]string{"filter": "[parallel, 3 workers]", "sort": "[parallel, 4 workers]"} {
		r := findRow(rows, action)
		if r == nil {
			t.Fatalf("no %s span in plan:\n%v", action, rows)
		}
		if !strings.Contains(r[1], want) {
			t.Errorf("%s span should be annotated %s: %v", action, want, r)
		}
	}

	rows = analyzeRows(t, tableParEngine(t, 1, 1, files), q)
	for _, action := range []string{"filter", "group", "sort"} {
		if r := findRow(rows, action); r == nil || strings.Contains(r[1], "parallel") {
			t.Errorf("serial %s span should have no parallel annotation: %v", action, r)
		}
	}

	// 3,000 rows are one morsel: four workers and a forced threshold
	// still leave the filter nothing to fan out.
	e := tableParEngine(t, 4, 1, tableParFiles(3000))
	rows = analyzeRows(t, e, `explain analyze select id from table TP where k > 10`)
	if r := findRow(rows, "filter"); r == nil || strings.Contains(r[1], "parallel") {
		t.Errorf("one-morsel filter span should have no parallel annotation: %v", r)
	}
	if c := e.Opts.Obs.Counter("graql_tableops_parallel_total", ""); c.Value() != 0 {
		t.Errorf("one-morsel filter counted %d parallel table ops, want 0", c.Value())
	}
}
