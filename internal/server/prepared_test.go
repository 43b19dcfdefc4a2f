package server_test

import (
	"testing"

	"graql/internal/exec"
	"graql/internal/server"
)

func TestPreparedSetLRUAndRemove(t *testing.T) {
	eng := exec.New(exec.DefaultOptions())
	if _, err := eng.ExecScript(`create table T(a integer)`, nil); err != nil {
		t.Fatal(err)
	}
	mk := func() *exec.Prepared {
		p, err := eng.Prepare(`select a from table T`)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	s := server.NewPreparedSet(2)
	id1 := s.Add(mk())
	id2 := s.Add(mk())
	// Touch id1 so id2 becomes the LRU victim of the next Add.
	if s.Get(id1) == nil {
		t.Fatal("id1 missing right after Add")
	}
	id3 := s.Add(mk())
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	if s.Get(id2) != nil {
		t.Error("least-recently-used handle survived past capacity")
	}
	if s.Get(id1) == nil || s.Get(id3) == nil {
		t.Error("recently used handles were evicted")
	}

	if !s.Remove(id1) {
		t.Error("Remove of a known id reported false")
	}
	if s.Get(id1) != nil {
		t.Error("removed handle still resolvable")
	}
	if s.Remove(id1) {
		t.Error("second Remove of the same id reported true")
	}
}
