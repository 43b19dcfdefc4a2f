package table

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"graql/internal/value"
)

// liveHeap is HeapAlloc after a forced collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestIngestDoesNotPinRecordLines: encoding/csv returns the fields of a
// record as substrings of one string per record, so a dictionary that kept
// a field as given would keep its whole line alive. Rows with a short
// unique key and a wide numeric payload must retain the key's bytes and
// the columns' own cells, not the line.
func TestIngestDoesNotPinRecordLines(t *testing.T) {
	const rows, payload = 20000, 8
	schema := Schema{{Name: "k", Type: value.Text}}
	for i := range payload {
		schema = append(schema, ColumnDef{Name: fmt.Sprintf("n%d", i), Type: value.Int})
	}
	var b strings.Builder
	for r := range rows {
		fmt.Fprintf(&b, "k%d", r)
		for range payload {
			fmt.Fprintf(&b, ",%060d", r) // 61 bytes of text, 8 of column
		}
		b.WriteByte('\n')
	}
	text := b.String()
	before := liveHeap()
	tb, err := LoadCSV(MustNew("T", schema), strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	perRow := float64(liveHeap()-before) / rows
	runtime.KeepAlive(tb)
	runtime.KeepAlive(text)
	for r := range rows {
		if got, want := tb.Value(uint32(r), 0).Str(), fmt.Sprintf("k%d", r); got != want {
			t.Fatalf("row %d: key %q, want %q", r, got, want)
		}
	}
	// Per row: the key (at most 6 bytes, copied into its dictionary), its
	// code, dictionary entry and index slots, and the integer cells — each
	// vector allowed twice its length for append's growth.
	budget := float64(8 + 2*(4+16+4*4+8*payload))
	line := float64(len(text)) / rows
	t.Logf("retained %.0f B per row; budget %.0f B; a record line is %.0f B", perRow, budget, line)
	if perRow > budget {
		t.Errorf("ingest retains %.0f B per row, over the %.0f B its cells need (a record line is %.0f B)", perRow, budget, line)
	}
}

// entries returns every entry of d, in code order.
func (d *dictionary) entries() []string {
	out := make([]string, d.len())
	for k := range out {
		out[k] = d.at(uint32(k))
	}
	return out
}

// dictModel is what a one-column varchar table must hold: its cells (nil
// for NULL) and its dictionary, in order of first appearance — a gathered,
// cloned or patched version starts from its source's whole dictionary.
type dictModel struct {
	tb    *Table
	cells []*string
	dict  []string
}

func (m *dictModel) add(s *string) {
	if s != nil && !slices.Contains(m.dict, *s) {
		m.dict = append(m.dict, *s)
	}
}

func (m *dictModel) derive(tb *Table, cells []*string) *dictModel {
	return &dictModel{tb: tb, cells: cells, dict: slices.Clone(m.dict)}
}

// check compares the table with the model: cells, codes, the dictionary
// and its index, and codeOf for every word.
func (m *dictModel) check(t *testing.T, words []string) {
	t.Helper()
	c := m.tb.Col(0).(*stringColumn)
	if m.tb.NumRows() != len(m.cells) || c.Len() != len(m.cells) || !slices.Equal(c.dict.entries(), m.dict) {
		t.Fatalf("%s: %d rows, dictionary %q; want %d rows, %q", m.tb.Name, c.Len(), c.dict.entries(), len(m.cells), m.dict)
	}
	if c.index != nil && c.index.Len() != c.dict.len() || c.index == nil && c.dict.len() > 0 {
		t.Fatalf("%s: index out of step with its %d-entry dictionary", m.tb.Name, c.dict.len())
	}
	for r, s := range m.cells {
		v, code := m.tb.Value(uint32(r), 0), c.codes[r]
		if s == nil {
			if !v.IsNull() || code != nullCode {
				t.Fatalf("%s row %d: %v (code %d), want NULL", m.tb.Name, r, v, code)
			}
		} else if v.IsNull() || v.Str() != *s || int(code) != slices.Index(m.dict, *s) {
			t.Fatalf("%s row %d: %v (code %d), want %q", m.tb.Name, r, v, code, *s)
		}
	}
	for _, w := range words {
		code, ok := c.codeOf(w)
		if want := slices.Index(m.dict, w); ok != (want >= 0) || ok && int(code) != want {
			t.Fatalf("%s: codeOf(%q) = %d, %v; dictionary %q", m.tb.Name, w, code, ok, m.dict)
		}
	}
}

// FuzzStringDictionary runs random Append / AppendStrings / Gather / Clone
// / Patch sequences over one-column varchar tables against dictModel, and
// checks every table after every step, so a version that appends never
// shows through to the one it came from.
func FuzzStringDictionary(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 1, 1, 0, 2, 3, 0, 0, 0, 0, 5, 2, 1, 7, 1, 1, 4})
	f.Add(uint8(0), []byte{1, 0, 6, 4, 0, 1, 0, 1, 3, 3, 1, 0, 0, 0, 6, 2, 0, 9, 5, 2, 2})
	f.Add(uint8(2), []byte{0, 0, 5, 0, 0, 6, 4, 0, 0, 4, 1, 6, 0, 1, 2, 0, 2, 1})
	words := []string{"", "a", "b", "ab", "ba", "abc", "bcd", "abcde", "0123456789"}
	f.Fuzz(func(t *testing.T, width uint8, ops []byte) {
		typ := value.Varchar(int(width%6) + 1)
		if width%6 == 5 {
			typ = value.Text
		}
		models := []*dictModel{{tb: MustNew("T0", Schema{{Name: "s", Type: typ}})}}
		fits := func(w string) bool { return typ.Width == 0 || len(w) <= typ.Width }
		ops = ops[:min(len(ops), 3*128)] // every step checks every table: keep runs short
		for ; len(ops) >= 3; ops = ops[3:] {
			m, arg := models[int(ops[1])%len(models)], int(ops[2])
			var cell *string // arg past the last word: NULL
			if arg%(len(words)+1) < len(words) {
				cell = &words[arg%(len(words)+1)]
			}
			name := fmt.Sprintf("T%d", len(models))
			switch ops[0] % 5 {
			case 0: // Append
				v := value.NewNull(value.KindString)
				if cell != nil {
					v = value.NewString(*cell)
				}
				err := m.tb.AppendRow([]value.Value{v})
				if (err == nil) != (cell == nil || fits(*cell)) {
					t.Fatalf("append %v to %s: %v", v, m.tb.Name, err)
				}
				if err == nil {
					m.cells = append(m.cells, cell)
					m.add(cell)
				}
			case 1: // AppendStrings, from a field cut out of a longer line
				if cell == nil {
					continue
				}
				line := "<" + *cell + ">"
				field := line[1 : 1+len(*cell)]
				isNew := !slices.Contains(m.dict, *cell)
				err := m.tb.AppendStrings([]string{field})
				if (err == nil) != fits(*cell) {
					t.Fatalf("ingest %q into %s: %v", field, m.tb.Name, err)
				}
				if err != nil {
					continue
				}
				m.cells = append(m.cells, cell)
				m.add(cell)
				c := m.tb.Col(0).(*stringColumn)
				if kept := c.dict.at(c.codes[len(c.codes)-1]); isNew && field != "" && unsafe.StringData(kept) == unsafe.StringData(field) {
					t.Fatalf("ingest kept %q as a slice of the record line", field)
				}
			case 2: // Gather every arg%3+1-th row, last first, plus a NULL
				if len(models) == 8 {
					continue
				}
				idx, cells := []uint32{noRow}, []*string{nil}
				for r := len(m.cells) - 1; r >= 0; r -= arg%3 + 1 {
					idx, cells = append(idx, uint32(r)), append(cells, m.cells[r])
				}
				models = append(models, m.derive(m.tb.Gather(name, idx), cells))
			case 3: // Clone
				if len(models) == 8 {
					continue
				}
				clone := m.tb.Clone()
				clone.Name = name
				models = append(models, m.derive(clone, slices.Clone(m.cells)))
			case 4: // Patch one row
				if len(models) == 8 || len(m.cells) == 0 {
					continue
				}
				r := arg % len(m.cells)
				v := value.NewNull(value.KindString)
				if cell != nil {
					v = value.NewString(*cell)
				}
				p, err := m.tb.Patch([]int{0}, []uint32{uint32(r)}, [][]value.Value{{v}})
				if (err == nil) != (cell == nil || fits(*cell)) {
					t.Fatalf("patch %s row %d to %v: %v", m.tb.Name, r, v, err)
				}
				if err != nil {
					continue
				}
				p.Name = name
				pm := m.derive(p, slices.Clone(m.cells))
				pm.cells[r] = cell
				pm.add(cell)
				models = append(models, pm)
			}
			for _, m := range models {
				m.check(t, words)
			}
		}
	})
}

// TestSharedDictionaryConcurrent: readers of one published varchar column
// gather, clone, probe and append to their own versions at once; run under
// -race it checks that sharing the index writes nothing a reader sees.
func TestSharedDictionaryConcurrent(t *testing.T) {
	src := MustNew("S", Schema{{Name: "s", Type: value.Text}})
	for i := range 1000 {
		if err := src.AppendRow([]value.Value{value.NewString(fmt.Sprintf("v%d", i%300))}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := src.Clone()
			if w%2 == 0 {
				mine = src.Gather("G", []uint32{5, 900, 17})
			}
			for i := range 300 {
				s := fmt.Sprintf("v%d", i)
				if code, ok := src.Col(0).(*stringColumn).codeOf(s); !ok || code != uint32(i) {
					t.Errorf("source: codeOf(%q) = %d, %v", s, code, ok)
				}
				if err := mine.AppendRow([]value.Value{value.NewString(fmt.Sprintf("w%d-%d", w, i))}); err != nil {
					t.Error(err)
				}
			}
			if code, ok := mine.Col(0).(*stringColumn).codeOf(fmt.Sprintf("w%d-299", w)); !ok || code != 599 {
				t.Errorf("worker %d: its own last string has code %d, %v; want 599", w, code, ok)
			}
		}()
	}
	wg.Wait()
	if _, ok := src.Col(0).(*stringColumn).codeOf("w0-0"); ok || src.Col(0).(*stringColumn).dict.len() != 300 {
		t.Error("a worker's append showed through to the published column")
	}
}

// TestDictionaryBytesNeverRewritten: a string read from a published
// version points into its dictionary's bytes, so no later write may
// change them. Readers hold the strings they read from the newest
// version, each beside a copy taken when it was read, while one writer
// interns new strings through Extend, Patch, gathers and writes that
// fail on a string too wide for the column, building on the newest
// version and on older ones. Every held string must stay equal to its
// copy; run under -race, no write may touch bytes a reader reads.
func TestDictionaryBytesNeverRewritten(t *testing.T) {
	src := MustNew("T", Schema{{Name: "s", Type: value.Varchar(8)}})
	for i := range 64 {
		if err := src.AppendRow([]value.Value{value.NewString(fmt.Sprintf("b%d", i%16))}); err != nil {
			t.Fatal(err)
		}
	}
	var cur atomic.Pointer[Table]
	cur.Store(src)
	var done atomic.Bool
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held, copies []string
			for last := false; !last; {
				last = done.Load() // one more pass once the writer is done
				v := cur.Load()
				for r := range v.NumRows() {
					s := v.Value(uint32(r), 0).Str()
					held, copies = append(held, s), append(copies, strings.Clone(s))
				}
				if len(held) > 8192 {
					held, copies = held[4096:], copies[4096:]
				}
				for i, s := range held {
					if s != copies[i] {
						t.Errorf("a held string changed from %q to %q", copies[i], s)
						return
					}
				}
			}
		}()
	}
	versions := []*Table{src}
	for step := range 400 {
		from := versions[len(versions)-1]
		if step%3 == 0 {
			from = versions[step%len(versions)] // an older version: its arrays' spare capacity is not its own
		}
		fresh := func(j int) value.Value { return value.NewString(fmt.Sprintf("n%d.%d", step, j)) }
		tooWide := value.NewString("far too wide")
		var next *Table
		var err error
		switch step % 4 {
		case 0:
			add := from.Empty(3)
			for _, v := range []value.Value{fresh(0), value.NewString("b3"), fresh(1)} {
				if err := add.AppendRow([]value.Value{v}); err != nil {
					t.Fatal(err)
				}
			}
			next, err = from.Extend(add)
		case 1:
			last := uint32(from.NumRows() - 1)
			next, err = from.Patch([]int{0}, []uint32{0, last}, [][]value.Value{{fresh(0)}, {fresh(1)}})
		case 2:
			idx := make([]uint32, 0, from.NumRows()/2+1)
			for r := 0; r < from.NumRows(); r += 2 {
				idx = append(idx, uint32(r))
			}
			next = from.Gather("T", idx)
			err = next.AppendRow([]value.Value{fresh(0)})
		case 3:
			// Each interns a new string before the wide one fails it, and
			// publishes nothing.
			if _, err := from.Patch([]int{0}, []uint32{0, 1}, [][]value.Value{{fresh(0)}, {tooWide}}); err == nil {
				t.Fatal("a patch to a string wider than the column succeeded")
			}
			add := from.Empty(2)
			if err := add.AppendRow([]value.Value{fresh(1)}); err != nil {
				t.Fatal(err)
			}
			if add.AppendRow([]value.Value{tooWide}) == nil {
				t.Fatal("an insert of a string wider than the column succeeded")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, next)
		cur.Store(next)
	}
	done.Store(true)
	wg.Wait()
}
