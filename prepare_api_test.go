package graql_test

import (
	"strings"
	"testing"
)

func TestPublicPrepareExecute(t *testing.T) {
	db := roadsDB(t)
	stmt, err := db.Prepare(`select B.id from graph City (id = %Start%) --road--> def B: City ( )`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stmt.Text(), "--road-->") {
		t.Errorf("Text() = %q", stmt.Text())
	}

	// Rebinding: one handle, per-call parameters.
	for start, want := range map[string]string{"PDX": "SEA", "SEA": "YVR"} {
		res, err := stmt.Exec(map[string]any{"Start": start})
		if err != nil {
			t.Fatalf("Exec Start=%s: %v", start, err)
		}
		tb := res[0].Table()
		if tb.NumRows() != 1 || tb.Value(0, 0).String() != want {
			t.Errorf("Start=%s rows=%d first=%q, want 1 row %q",
				start, tb.NumRows(), tb.Value(0, 0).String(), want)
		}
	}

	// The prepare already planned the statement, so the first Exec above
	// was a plan-cache hit and no Exec added a miss.
	hits, _, _, _ := db.PlanCacheStats()
	if hits < 2 {
		t.Errorf("plan cache hits = %d, want >= 2", hits)
	}
}

func TestPublicPrepareErrorsEarly(t *testing.T) {
	db := roadsDB(t)
	if _, err := db.Prepare(`select nope from table Missing`); err == nil {
		t.Error("semantic error must surface at Prepare for read-only scripts")
	}
	if _, err := db.Prepare(`select from`); err == nil {
		t.Error("parse error must surface at Prepare")
	}
}

// A prepared handle must observe DML committed after the prepare: the
// stored plan is rebound to the new table version, never served over the
// old one.
func TestPublicPreparedSeesLaterDML(t *testing.T) {
	db := roadsDB(t)
	stmt, err := db.Prepare(`select count(*) as c from table Cities`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Exec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Table().Value(0, 0).Int64(); got != 3 {
		t.Fatalf("initial count = %d, want 3", got)
	}
	if _, err := db.Exec(`insert into Cities values ('LAX', 'US', 4000000, '1850-04-04')`); err != nil {
		t.Fatal(err)
	}
	res, err = stmt.Exec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Table().Value(0, 0).Int64(); got != 4 {
		t.Fatalf("count after insert = %d, want 4 (stale plan?)", got)
	}
}
