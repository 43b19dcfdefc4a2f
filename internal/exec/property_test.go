package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"graql/internal/cluster"
	"graql/internal/graph"
	"graql/internal/obs"
	"graql/internal/parser"
	"graql/internal/sema"
)

// randFixture generates a random two-type graph (A --e--> B, B --f--> A,
// A --loop--> A) with integer attributes, as CSV files.
func randFixture(r *rand.Rand) map[string]string {
	nA, nB := 3+r.Intn(12), 3+r.Intn(12)
	var ta, tb, te, tf, tl strings.Builder
	for i := 0; i < nA; i++ {
		fmt.Fprintf(&ta, "a%d,%d\n", i, r.Intn(10))
	}
	for i := 0; i < nB; i++ {
		fmt.Fprintf(&tb, "b%d,%d\n", i, r.Intn(10))
	}
	for i := 0; i < 3+r.Intn(4*nA); i++ {
		fmt.Fprintf(&te, "a%d,b%d,%d\n", r.Intn(nA), r.Intn(nB), r.Intn(10))
	}
	for i := 0; i < 3+r.Intn(4*nB); i++ {
		fmt.Fprintf(&tf, "b%d,a%d\n", r.Intn(nB), r.Intn(nA))
	}
	for i := 0; i < r.Intn(3*nA); i++ {
		fmt.Fprintf(&tl, "a%d,a%d\n", r.Intn(nA), r.Intn(nA))
	}
	return map[string]string{
		"ta.csv": ta.String(), "tb.csv": tb.String(),
		"te.csv": te.String(), "tf.csv": tf.String(), "tl.csv": tl.String(),
	}
}

// randLinearQuery builds a random linear into-subgraph query over the
// fixture types with random self conditions.
func randLinearQuery(r *rand.Rand) string {
	steps := 1 + r.Intn(4)
	var b strings.Builder
	cur := "A"
	if r.Intn(2) == 0 {
		cur = "B"
	}
	cond := func(vtx string) string {
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf(" (n < %d)", 2+r.Intn(9))
		case 1:
			return fmt.Sprintf(" (n >= %d)", r.Intn(5))
		default:
			return " ( )"
		}
	}
	b.WriteString("select * from graph\n")
	b.WriteString(cur + cond(cur))
	for s := 0; s < steps; s++ {
		if cur == "A" {
			if r.Intn(8) == 0 {
				// Occasionally a path-regex fragment (stays at A via loop).
				quants := []string{"+", "*", "{1}", "{2}", "{1,2}"}
				fmt.Fprintf(&b, " ( --loop--> [ ] )%s ", quants[r.Intn(len(quants))])
			} else if r.Intn(3) == 0 {
				// loop keeps us at A.
				b.WriteString(" --loop--> ")
			} else if r.Intn(2) == 0 {
				if r.Intn(3) == 0 {
					fmt.Fprintf(&b, " --e (w > %d)--> ", r.Intn(8))
				} else {
					b.WriteString(" --e--> ")
				}
				cur = "B"
			} else {
				b.WriteString(" <--f-- ")
				cur = "B"
			}
		} else {
			if r.Intn(2) == 0 {
				b.WriteString(" --f--> ")
			} else {
				if r.Intn(3) == 0 {
					fmt.Fprintf(&b, " <--e (w > %d)-- ", r.Intn(8))
				} else {
					b.WriteString(" <--e-- ")
				}
			}
			cur = "A"
		}
		b.WriteString(cur + cond(cur))
	}
	b.WriteString("\ninto subgraph out")
	return b.String()
}

// subgraphFingerprint canonicalises a subgraph for comparison.
func subgraphFingerprint(s *graph.Subgraph) string {
	var parts []string
	for vt, b := range s.Vertices {
		if b.Any() {
			parts = append(parts, fmt.Sprintf("v:%s:%v", vt.Name, b.Slice()))
		}
	}
	for et, b := range s.Edges {
		if b.Any() {
			parts = append(parts, fmt.Sprintf("e:%s:%v", et.Name, b.Slice()))
		}
	}
	sortStrings(parts)
	return strings.Join(parts, ";")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestCullingEqualsEnumeration is the core Eq. 5 property: for linear
// chains, read in the planner's order whichever step it starts at, the
// capture's exact sets are exactly the collapse of full binding
// enumeration.
func TestCullingEqualsEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		files := randFixture(r)
		e := newTestEngine(files)
		mustExec(t, e, semaSchema, nil)
		query := randLinearQuery(r)

		script, err := parser.Parse(query)
		if err != nil {
			t.Fatalf("trial %d: parse: %v\n%s", trial, err, query)
		}
		an := &sema.Analyzer{Cat: e.Cat}
		analyzed, err := an.Analyze(script.Stmts[0])
		if err != nil {
			t.Fatalf("trial %d: analyze: %v\n%s", trial, err, query)
		}
		sel := analyzed.(*sema.Select)
		alt := sel.GraphAlts[0]
		prep, err := e.prepareAlt(alt, nil)
		if err != nil {
			t.Fatal(err)
		}

		cullSub := graph.NewSubgraph("cull")
		enumSub := graph.NewSubgraph("enum")
		err = e.forEachTyping(alt.Pattern, func(nt []*graph.VertexType, et []*graph.EdgeType) error {
			m, err := e.newMatcher(alt.Pattern, nt, et, prep.nodeCond, prep.edgeCond)
			if err != nil {
				return err
			}
			nodeSel, edgeSel := selectedSteps(alt.Pattern, nil)
			if err := m.capture(nodeSel, edgeSel, cullSub); err != nil {
				return err
			}
			m2, err := e.newMatcher(alt.Pattern, nt, et, prep.nodeCond, prep.edgeCond)
			if err != nil {
				return err
			}
			return m2.enumerateIntoSubgraph(nodeSel, edgeSel, enumSub)
		})
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, query)
		}
		if got, want := subgraphFingerprint(cullSub), subgraphFingerprint(enumSub); got != want {
			t.Fatalf("trial %d: culling and enumeration disagree\nquery:\n%s\nculled: %s\nenumerated: %s",
				trial, query, got, want)
		}
	}
}

// TestReverseIndexAblationEquivalence: disabling reverse indexes (§III-B
// "when memory space ... is available") must not change any result, only
// the execution strategy (edge scans instead of index probes).
func TestReverseIndexAblationEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		files := randFixture(r)
		query := randLinearQuery(r)

		run := func(reverse bool) string {
			opts := DefaultOptions()
			opts.Workers = 2
			opts.ReverseIndexes = reverse
			opts.FileOpener = memFS(files)
			e := New(opts)
			mustExec(t, e, semaSchema, nil)
			res := mustExec(t, e, query, nil)
			return subgraphFingerprint(res[len(res)-1].Subgraph)
		}
		with := run(true)
		without := run(false)
		if with != without {
			t.Fatalf("trial %d: reverse-index ablation changed results\nquery:\n%s\nwith: %s\nwithout: %s",
				trial, query, with, without)
		}
	}
}

// TestRegexUnrollEquivalence: a {k} regex equals the explicitly unrolled
// k-step path.
func TestRegexUnrollEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		files := randFixture(r)
		e := newTestEngine(files)
		mustExec(t, e, semaSchema, nil)
		k := 1 + r.Intn(3)

		regexQ := fmt.Sprintf(
			"select distinct y.id from graph A ( ) ( --loop--> [ ] ){%d} def y: A ( ) order by id asc", k)
		unrolled := "select distinct y.id from graph A ( ) "
		for i := 0; i < k-1; i++ {
			unrolled += "--loop--> A ( ) "
		}
		unrolled += "--loop--> def y: A ( ) order by id asc"

		a := rowSet(tableRows(t, mustExec(t, e, regexQ, nil)))
		b := rowSet(tableRows(t, mustExec(t, e, unrolled, nil)))
		if len(a) != len(b) {
			t.Fatalf("trial %d k=%d: regex %v vs unrolled %v", trial, k, a, b)
		}
		for k2 := range a {
			if b[k2] == 0 {
				t.Fatalf("trial %d: %s missing from unrolled result", trial, k2)
			}
		}
	}
}

// TestPlannerOrderIndependence: whatever order the planner picks, binding
// results must match a canonical left-to-right evaluation. We force
// different orders by flipping which end carries the selective filter.
func TestPlannerOrderIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		files := randFixture(r)
		e := newTestEngine(files)
		mustExec(t, e, semaSchema, nil)
		for _, q := range []string{
			`select x.id, y.id as yid from graph def x: A (n < 2) --e--> def y: B ( )`,
			`select x.id, y.id as yid from graph def x: A ( ) --e--> def y: B (n < 2)`,
		} {
			rows := tableRows(t, mustExec(t, e, q, nil))
			// Reference: nested-loop over raw tables.
			want := nestedLoopE(t, e, q)
			got := rowSet(rows)
			if len(got) != len(want) {
				t.Fatalf("trial %d query %q: got %v want %v", trial, q, got, want)
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("trial %d query %q: row %q count %d want %d", trial, q, k, got[k], n)
				}
			}
		}
	}
}

// nestedLoopE recomputes an A--e-->B binding query naively from the raw
// tables, honouring the n<2 filter on whichever side carries it.
func nestedLoopE(t *testing.T, e *Engine, q string) map[string]int {
	t.Helper()
	filterA := strings.Contains(q, "A (n < 2)")
	filterB := strings.Contains(q, "B (n < 2)")
	ta := e.Cat.Table("TA")
	tb := e.Cat.Table("TB")
	te := e.Cat.Table("TE")
	nOf := func(tab string, id string) int64 {
		tt := e.Cat.Table(tab)
		for r := uint32(0); r < uint32(tt.NumRows()); r++ {
			if tt.Value(r, 0).Str() == id {
				return tt.Value(r, 1).Int()
			}
		}
		t.Fatalf("missing id %s", id)
		return 0
	}
	exists := func(tab, id string) bool {
		tt := e.Cat.Table(tab)
		for r := uint32(0); r < uint32(tt.NumRows()); r++ {
			if tt.Value(r, 0).Str() == id {
				return true
			}
		}
		return false
	}
	_ = ta
	_ = tb
	out := map[string]int{}
	for r := uint32(0); r < uint32(te.NumRows()); r++ {
		src, dst := te.Value(r, 0).Str(), te.Value(r, 1).Str()
		if !exists("TA", src) || !exists("TB", dst) {
			continue
		}
		if filterA && nOf("TA", src) >= 2 {
			continue
		}
		if filterB && nOf("TB", dst) >= 2 {
			continue
		}
		out[src+"|"+dst]++
	}
	return out
}

// pathSchema extends semaSchema with what the path-query generator needs on
// top of A, B, e, f and loop: G, a many-to-one vertex type over TA (several
// rows share an n, some have none), and grp, the edge from an A to the G of
// its n.
const pathSchema = semaSchema + `
create vertex G(n) from table TA
create edge grp with vertices (A, G) where A.n = G.n
`

// pathFixture is randFixture with NULLs — some n of TA and TB and some w of
// TE are missing, so conditions come out TRUE, FALSE and NULL — and with
// biso, a B no edge touches, the one vertex on which pathErrCond fails.
func pathFixture(r *rand.Rand) map[string]string {
	files := randFixture(r)
	for _, name := range []string{"ta.csv", "tb.csv", "te.csv"} {
		lines := strings.Split(strings.TrimSuffix(files[name], "\n"), "\n")
		for i, line := range lines {
			if r.Intn(6) == 0 {
				lines[i] = line[:strings.LastIndex(line, ",")+1]
			}
		}
		files[name] = strings.Join(lines, "\n") + "\n"
	}
	files["tb.csv"] += "biso,-1\n"
	return files
}

// pathErrCond holds where n <= 3 does, and divides by zero on biso alone. No
// path reaches biso, so deciding it there is deciding it outside the forward
// pass's frontier — unless the step is where the pass starts.
const pathErrCond = "(12 / (n + 1) > 2)"

// pathGen draws one or-alternative of a graph select over pathSchema: a
// first path of one to four steps from an A or B labelled x0, then
// and-composed paths that hang off a foreach-labelled step (a tree) or join
// two of them (a cycle). Steps carry self conditions, conditions on an
// earlier label's n (deferred), edge conditions on e's w, seeds from the
// subgraph s1 and, as a path's last step, a [ ] variant. A B step other
// than x0 may carry pathErrCond when the planner cannot start there: it
// starts at the step of the smallest estimate, the earliest among equals,
// and errOK says that B's, unseeded and under a condition the estimator
// cannot read, is no smaller than what x0 could be given.
type pathGen struct {
	r      *rand.Rand
	labels []pathLabel // foreach labels so far
	n      int         // labels handed out
	nA, nB int         // vertices of A and B in the trial's fixture
	errOK  bool
}

type pathLabel struct{ name, typ string }

func (g *pathGen) cond() string {
	switch g.r.Intn(6) {
	case 0:
		return fmt.Sprintf("(n < %d)", 2+g.r.Intn(9))
	case 1:
		return fmt.Sprintf("(n >= %d)", g.r.Intn(5))
	case 2:
		return fmt.Sprintf("(not (n = %d))", g.r.Intn(10))
	case 3:
		if len(g.labels) > 0 {
			return fmt.Sprintf("(n >= %s.n)", g.labels[g.r.Intn(len(g.labels))].name)
		}
	}
	return "( )"
}

// vertex renders a step of the given type, foreach-labelled now and then.
func (g *pathGen) vertex(typ string, label bool) string {
	s := typ
	if typ != "G" && g.r.Intn(6) == 0 {
		s = "s1." + typ
	}
	if label || g.r.Intn(3) == 0 {
		name := fmt.Sprintf("x%d", g.n)
		g.n++
		g.labels = append(g.labels, pathLabel{name, typ})
		s = "foreach " + name + ": " + s
	}
	if typ == "B" && !label && g.errOK && g.r.Intn(4) == 0 {
		return s + " " + pathErrCond
	}
	return s + " " + g.cond()
}

// walk appends 1..steps edge+vertex steps to a path standing at typ.
func (g *pathGen) walk(b *strings.Builder, typ string, steps int) {
	for ; steps > 0; steps-- {
		type hop struct{ edge, to string }
		var hops []hop
		switch typ {
		case "A":
			e := "--e-->"
			if g.r.Intn(3) == 0 {
				e = fmt.Sprintf("--e (w > %d)-->", g.r.Intn(8))
			}
			hops = []hop{{e, "B"}, {"<--f--", "B"}, {"--loop-->", "A"}, {"<--loop--", "A"}, {"--grp-->", "G"}}
		case "B":
			hops = []hop{{"--f-->", "A"}, {"<--e--", "A"}}
		case "G":
			hops = []hop{{"<--grp--", "A"}}
		}
		if steps == 1 && g.r.Intn(6) == 0 {
			b.WriteString([]string{" --[ ]--> [ ]", " <--[ ]-- [ ]"}[g.r.Intn(2)])
			return
		}
		h := hops[g.r.Intn(len(hops))]
		typ = h.to
		b.WriteString(" " + h.edge + " " + g.vertex(typ, false))
	}
}

func (g *pathGen) alt() string {
	g.labels, g.n = nil, 0
	var b strings.Builder
	start := []string{"A", "B"}[g.r.Intn(2)]
	g.errOK = start == "B" || g.nB >= g.nA
	b.WriteString(g.vertex(start, true))
	g.walk(&b, start, g.r.Intn(4))
	for extra := g.r.Intn(3); extra > 0; extra-- {
		from := g.labels[g.r.Intn(len(g.labels))]
		b.WriteString("\nand (" + from.name)
		if to := g.labels[g.r.Intn(len(g.labels))]; g.r.Intn(3) == 0 && from.typ == "A" && to.typ == "A" {
			b.WriteString(" --loop--> " + to.name) // closes a cycle
		} else {
			g.walk(&b, from.typ, 1+g.r.Intn(2))
		}
		b.WriteString(")")
	}
	return b.String()
}

// TestEngineEqualsReference: on generated data and tree-shaped, cyclic,
// seeded, variant-typed and or-composed patterns, graph selects into a
// table — projecting the first step, and the last label every alternative
// has, with and without distinct — and the same pattern captured into a
// subgraph equal Eq. 5 read literally (referencePaths) — serially and on
// four workers, with and without reverse indexes, and with the expansions
// on this process or on two simulated partitions, hash or block placed.
// Each route of a select into a table (DESIGN.md §4) must be taken in
// enough trials, and so must capture and enumeration into a subgraph and
// the capture's top-down pass.
func TestEngineEqualsReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	g := &pathGen{r: r}
	shapes := map[string]int{}
	routes, subRoutes := map[string]int{}, map[string]int{}
	for trial := 0; trial < 150; trial++ {
		files := pathFixture(r)
		g.nA, g.nB = strings.Count(files["ta.csv"], "\n"), strings.Count(files["tb.csv"], "\n")
		// last is the last label every alternative has, with the column it
		// projects: id, or n where it labels a G, which has no id.
		pattern := g.alt()
		alts := [][]pathLabel{g.labels}
		if r.Intn(4) == 0 {
			pattern += "\nor " + g.alt()
			alts = append(alts, g.labels)
		}
		labels := len(alts[0])
		for _, l := range alts {
			labels = min(labels, len(l))
		}
		last := alts[0][labels-1].name + ".id"
		for _, l := range alts {
			if l[labels-1].typ == "G" {
				last = l[labels-1].name + ".n"
			}
		}
		for _, mark := range []string{"and (", "or ", "[ ]", "s1.", ".n)", "(w >", "G (", "--> x", "x1", pathErrCond} {
			if strings.Contains(pattern, mark) {
				shapes[mark]++
			}
		}
		queries := []string{
			"select * from graph\n" + pattern + "\ninto subgraph out",
			"select x0.id, x0.n as k from graph\n" + pattern,
			"select distinct " + last + " from graph\n" + pattern,
			"select " + last + " from graph\n" + pattern,
		}
		taken, captured := map[string]bool{}, map[string]bool{}
		var wantRows [][]string
		var wantSub string
		for _, workers := range []int{1, 4} {
			for _, reverse := range []bool{true, false} {
				for _, placement := range []string{"local", "hash", "block"} {
					opts := DefaultOptions()
					opts.Workers, opts.ReverseIndexes, opts.FileOpener = workers, reverse, memFS(files)
					if workers > 1 {
						opts.ParallelThreshold = 1 // the sweeps of these small sets fan out too
					}
					if placement != "local" {
						strategy, _ := cluster.ParseStrategy(placement)
						opts.Dist = cluster.Simulated(2, strategy)
					}
					e := New(opts)
					mustExec(t, e, pathSchema, nil)
					mustExec(t, e, `select * from graph A (n < 6) --e--> B ( ) into subgraph s1`, nil)
					if wantRows == nil {
						wantSub = subgraphFingerprint(referenceSubgraph(t, e, mustAnalyze(t, e, queries[0]), nil))
						for _, q := range queries[1:] {
							want := referenceTable(t, e, mustAnalyze(t, e, q), nil)
							if strings.HasPrefix(q, "select distinct") {
								want = slices.Compact(want)
							}
							wantRows = append(wantRows, want)
						}
					}
					// The routes are read off the spans of one traced run.
					traced := func() *Engine {
						if workers == 1 && reverse && placement == "local" {
							return e.WithTrace(obs.NewTrace(obs.TraceID{}), nil)
						}
						return e
					}
					ex := traced()
					res := mustExec(t, ex, queries[0], nil)
					if got := subgraphFingerprint(res[len(res)-1].Subgraph); got != wantSub {
						t.Fatalf("trial %d (workers %d, reverse %v, %s): into subgraph\n%s\nengine    %s\nreference %s",
							trial, workers, reverse, placement, queries[0], got, wantSub)
					}
					for _, sp := range ex.trace.Spans() {
						switch {
						case strings.HasPrefix(sp.Detail, "forward cull at"):
							captured["top-down"] = true
						case sp.Action == "capture-expand":
							captured["capture"] = true
						case sp.Action == "expand":
							captured["enumerate"] = true
						}
					}
					for i, q := range queries[1:] {
						ex := traced()
						got := []string{}
						for _, row := range tableRows(t, mustExec(t, ex, q, nil)) {
							got = append(got, strings.Join(row, ","))
						}
						sortStrings(got)
						if !slices.Equal(got, wantRows[i]) {
							t.Fatalf("trial %d (workers %d, reverse %v, %s): into table\n%s\nengine    %v\nreference %v",
								trial, workers, reverse, placement, q, got, wantRows[i])
						}
						for _, sp := range ex.trace.Spans() {
							switch sp.Action {
							case "reduce-only", "count":
								taken[sp.Action] = true
							case "scan":
								taken["enumerate"] = true
							}
						}
					}
				}
			}
		}
		for route := range taken {
			routes[route]++
		}
		for route := range captured {
			subRoutes[route]++
		}
	}
	// A generator that stopped drawing one of the shapes, or a route, would
	// pass vacuously.
	for mark, want := range map[string]int{"and (": 40, "or ": 20, "[ ]": 8, "s1.": 30, ".n)": 15, "(w >": 10, "G (": 15, "--> x": 5, "x1": 60, pathErrCond: 15} {
		if shapes[mark] < want {
			t.Errorf("only %d of 150 patterns contain %q, want at least %d", shapes[mark], mark, want)
		}
	}
	for _, route := range []string{"reduce-only", "count", "enumerate"} {
		if routes[route] < 20 {
			t.Errorf("route %s taken in only %d of 150 trials, want at least 20", route, routes[route])
		}
	}
	for _, route := range []string{"capture", "enumerate", "top-down"} {
		if subRoutes[route] < 20 {
			t.Errorf("into subgraph: %s taken in only %d of 150 trials, want at least 20", route, subRoutes[route])
		}
	}
	t.Logf("trials per route: into table %v, into subgraph %v", routes, subRoutes)
}

// mustAnalyze is analyzeSelect for statements that must pass the front end.
func mustAnalyze(t *testing.T, e *Engine, query string) *sema.Select {
	t.Helper()
	sel, ok := analyzeSelect(t, e, query)
	if !ok {
		t.Fatalf("generated statement rejected:\n%s", query)
	}
	return sel
}
