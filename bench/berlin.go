package main

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"graql/internal/bsbm"
	"graql/internal/exec"
	"graql/internal/obs"
	"graql/internal/server"
	"graql/internal/value"
)

// pval is one generated parameter value with its GraQL type.
type pval struct {
	typ string // varchar | integer | float | date
	s   string
}

func (p pval) value() (value.Value, error) {
	t, err := value.ParseType(p.typ)
	if err != nil {
		return value.Value{}, err
	}
	return value.Parse(p.s, t)
}

func (p pval) wire() server.Param { return server.Param{Type: p.typ, Value: p.s} }

// literal renders the value as GraQL source, for ops that inline it.
func (p pval) literal() string {
	switch p.typ {
	case "varchar":
		return "'" + p.s + "'"
	case "date":
		return "date '" + p.s + "'"
	}
	return p.s
}

// paramSet is one pooled binding of a shape's parameters.
type paramSet map[string]pval

func (ps paramSet) typed() (map[string]value.Value, error) {
	out := make(map[string]value.Value, len(ps))
	for name, p := range ps {
		v, err := p.value()
		if err != nil {
			return nil, fmt.Errorf("parameter %s: %w", name, err)
		}
		out[name] = v
	}
	return out, nil
}

func (ps paramSet) wire() map[string]server.Param {
	out := make(map[string]server.Param, len(ps))
	for name, p := range ps {
		out[name] = p.wire()
	}
	return out
}

// shape is one statement shape of a workload: a script with %name%
// parameters and, per statement, whether its output is totally ordered
// (so the digest may depend on row order).
type shape struct {
	name    string
	script  string
	ordered []bool
}

// inline substitutes a parameter set into the script as literals.
func (s shape) inline(ps paramSet) string {
	out := s.script
	for name, p := range ps {
		out = strings.ReplaceAll(out, "%"+name+"%", p.literal())
	}
	return out
}

// poolSize is how many parameter sets set-up draws per shape, unless a
// workload states otherwise.
const poolSize = 64

// berlinDB is an engine holding a generated Berlin dataset, opened the
// way cmd/gems-server opens it.
type berlinDB struct {
	cfg bsbm.Config
	reg *obs.Registry
	eng *exec.Engine
	rng *rand.Rand // draws the parameter pools, seeded from -seed
}

// serverOptions are the engine options of a default gems-server:
// reverse indexes on, Workers = GOMAXPROCS, plan cache 256, the IR
// verifier sampling, metrics and the trace ring enabled.
func serverOptions(reg *obs.Registry) exec.Options {
	opts := exec.DefaultOptions()
	opts.IRVerify = exec.IRVerifySample
	opts.Obs = reg
	reg.SetSlowQueryThreshold(0)
	reg.EnableTracing(64)
	return opts
}

func berlinScale(full int, smoke bool) int {
	if smoke {
		return 1
	}
	return full
}

func openBerlin(sf int, cfg setupConfig) (*berlinDB, error) {
	db := &berlinDB{
		cfg: bsbm.Config{ScaleFactor: sf, Seed: cfg.seed},
		reg: obs.New(),
		rng: rand.New(rand.NewSource(cfg.seed ^ 0x5eed)),
	}
	t0 := time.Now()
	ds := bsbm.Generate(db.cfg)
	gen := time.Since(t0)
	opts := serverOptions(db.reg)
	opts.FileOpener = func(path string) (io.ReadCloser, error) {
		body, ok := ds.Files[path]
		if !ok {
			return nil, fmt.Errorf("no generated file %s", path)
		}
		return io.NopCloser(strings.NewReader(body)), nil
	}
	db.eng = exec.New(opts)
	t0 = time.Now()
	if _, err := db.eng.ExecScript(bsbm.FullDDL, nil); err != nil {
		return nil, fmt.Errorf("Berlin load: %w", err)
	}
	db.eng.Opts.FileOpener = nil // drops the CSV text
	if cfg.phases != nil {
		cfg.phases["generate"] = gen
		cfg.phases["load"] = time.Since(t0)
	}
	return db, db.checkCounts()
}

// checkCounts compares the loaded views with the generator's arithmetic:
// the oracle shares the loaded catalog, so the load itself is checked
// against numbers that do not come from the program.
func (db *berlinDB) checkCounts() error {
	products, producers, features, types, vendors, offers, persons, reviews := db.cfg.Counts()
	g := db.eng.Cat.Graph()
	for name, want := range map[string]int{
		"ProductVtx": products, "ProducerVtx": producers, "FeatureVtx": features, "TypeVtx": types,
		"VendorVtx": vendors, "OfferVtx": offers, "PersonVtx": persons, "ReviewVtx": reviews,
	} {
		vt := g.VertexType(name)
		if vt == nil || vt.Count() != want {
			return fmt.Errorf("vertex view %s: got %v instances, generator made %d", name, vt, want)
		}
	}
	for name, want := range map[string]int{
		"producer": products, "product": offers, "vendor": offers, "reviewFor": reviews, "reviewer": reviews,
	} {
		et := g.EdgeType(name)
		if et == nil || et.Count() != want {
			return fmt.Errorf("edge view %s: got %v instances, generator implies %d", name, et, want)
		}
	}
	return nil
}

// oracleEngine is the independent route expected digests come from: a
// serial engine without plan cache and with the verifier always on,
// executing script text, over the same loaded catalog.
func oracleEngine(eng *exec.Engine) *exec.Engine {
	o := exec.New(exec.Options{Workers: 1, ReverseIndexes: true, PlanCache: -1, IRVerify: exec.IRVerifyAlways})
	o.Cat = eng.Cat
	return o
}

// expect runs one shape with one parameter set through the oracle and
// returns the digest a measured op must reproduce.
func expect(oracle *exec.Engine, s shape, ps paramSet) (uint64, error) {
	typed, err := ps.typed()
	if err != nil {
		return 0, err
	}
	rs, err := oracle.ExecScript(s.script, typed)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", s.name, err)
	}
	return digestResults(rs, s.ordered), nil
}

// strata returns, for each of the poolSize entries of a pool, a number
// in [0, poolSize) — a seeded permutation. Parameters that decide how
// much work an op does (a country, a selectivity bound) are derived from
// it, so that every seed's pool covers the same values equally often and
// only their pairing and order change: a run's cost then depends on the
// seed through the generated data alone, not through a lucky pool.
func (db *berlinDB) strata() []int { return db.rng.Perm(poolSize) }

func country(stratum int) pval {
	return pval{"varchar", bsbm.Countries[stratum%len(bsbm.Countries)]}
}

// spread maps a stratum onto [lo, hi) in equal steps.
func spread(stratum int, lo, hi float64) float64 {
	return lo + (hi-lo)*float64(stratum)/poolSize
}

func (db *berlinDB) id(prefix string, n int) pval {
	return pval{"varchar", fmt.Sprintf("%s%d", prefix, db.rng.Intn(n))}
}

// counters reads the engine's public counters the ledger takes deltas of.
func (db *berlinDB) counters() map[string]float64 {
	c := map[string]float64{}
	for key, name := range map[string]string{
		"edges":      "graql_edges_traversed_total",
		"rows":       "graql_rows_scanned_total",
		"sweeps":     "graql_parallel_sweeps_total",
		"supersteps": "graql_dist_supersteps_total",
		"exchange":   "graql_dist_exchange_bytes_total",
		"retries":    "graql_dist_retries_total",
		"messages":   "graql_cluster_messages_total",
	} {
		c[key] = float64(db.reg.Counter(name, "").Value())
	}
	hits, misses, _, _ := db.eng.PlanCacheStats()
	c["plan_hits"], c["plan_misses"] = float64(hits), float64(misses)
	db.eng.Cat.RLock()
	c["epoch"] = float64(db.eng.Cat.Epoch())
	db.eng.Cat.RUnlock()
	return c
}

// seqRNG is the op-sequence generator of one client: the same seed and
// client give the same sequence of pool indexes.
func seqRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(client) + 1))
}

func mismatch(name string, got, want uint64) error {
	return fmt.Errorf("%s: digest %s, oracle expects %s", name, hex(got), hex(want))
}
