package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"graql/internal/cluster"
	"graql/internal/exec"
	"graql/internal/value"
)

// dist_chain runs one linear-chain subgraph query per op on an engine
// whose chain queries scatter over cluster.TCPTransport to two worker
// shards served on loopback from this process.

const (
	distSF      = 60
	distWorkers = 2
)

var distShape = shape{name: "chain", ordered: []bool{false}, script: `
select * from graph
ProducerVtx (country = %Country%)
<--producer-- ProductVtx (propertyNumeric_1 > %Lower%)
<--reviewFor-- ReviewVtx
into subgraph distChain`}

type distInstance struct {
	db     *berlinDB
	pool   []paramSet
	typed  []map[string]value.Value
	want   []uint64
	handle *exec.Prepared

	tp        *cluster.TCPTransport
	workers   []*cluster.Worker
	listeners []net.Listener
	served    sync.WaitGroup
}

func setupDistChain(cfg setupConfig) (instance, error) {
	db, err := openBerlin(berlinScale(distSF, cfg.smoke), cfg)
	if err != nil {
		return nil, err
	}
	in := &distInstance{db: db}
	c, lo := db.strata(), db.strata()
	for i := 0; i < poolSize; i++ {
		ps := paramSet{"Country": country(c[i]), "Lower": {"integer", fmt.Sprint(int(spread(lo[i], 0, 1500)))}}
		typed, err := ps.typed()
		if err != nil {
			return nil, err
		}
		in.pool = append(in.pool, ps)
		in.typed = append(in.typed, typed)
	}

	g := db.eng.Cat.Graph()
	addrs := make([]string, distWorkers)
	for p := 0; p < distWorkers; p++ {
		wk, err := cluster.NewWorker(g, p, distWorkers, cluster.Hash)
		if err != nil {
			in.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			in.close()
			return nil, err
		}
		wk.SetObs(db.reg)
		addrs[p] = ln.Addr().String()
		in.workers = append(in.workers, wk)
		in.listeners = append(in.listeners, ln)
		in.served.Add(1)
		go func() {
			defer in.served.Done()
			_ = wk.Serve(ln) // returns when close() closes the worker
		}()
	}
	// The coordinator's defaults of cmd/gems-server: 5 s per superstep
	// RPC, one retry.
	in.tp, err = cluster.DialTCP(addrs, cluster.DialOptions{
		Strategy:    cluster.Hash,
		Fingerprint: cluster.GraphFingerprint(g),
		Timeout:     5 * time.Second,
		Retries:     1,
		Obs:         db.reg,
	})
	if err != nil {
		in.close()
		return nil, err
	}
	db.eng.Opts.Dist = in.tp
	if in.handle, err = db.eng.Prepare(distShape.script); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func (in *distInstance) clients() int { return 1 }

// oracle evaluates the chain on the serial engine, which has no cluster
// configured and so culls the chain locally.
func (in *distInstance) oracle() error {
	o := oracleEngine(in.db.eng)
	for _, ps := range in.pool {
		d, err := expect(o, distShape, ps)
		if err != nil {
			return err
		}
		in.want = append(in.want, d)
	}
	return nil
}

type distClient struct {
	in  *distInstance
	rng *rand.Rand
}

func (in *distInstance) newClient(c int) (client, error) {
	return &distClient{in: in, rng: seqRNG(in.db.cfg.Seed, c)}, nil
}

func (c *distClient) close() {}

func (c *distClient) do(op int64, tr *tracer, parent int) (time.Duration, error) {
	in := c.in
	set := c.rng.Intn(len(in.pool))
	sp := tr.begin("exec.chain", parent, op)
	t0 := time.Now()
	rs, err := in.db.eng.ExecPrepared(in.handle, in.typed[set])
	lat := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return lat, err
	}
	sp = tr.begin("bench.check", parent, op)
	defer tr.end(sp)
	if got := digestResults(rs, distShape.ordered); got != in.want[set] {
		return lat, mismatch(fmt.Sprintf("chain set %d", set), got, in.want[set])
	}
	return lat, nil
}

func (in *distInstance) counters() map[string]float64 { return in.db.counters() }
func (in *distInstance) finish(*layerCtx) error       { return nil }

func (in *distInstance) close() {
	if in.tp != nil {
		in.tp.Close()
	}
	for i, wk := range in.workers {
		wk.Close()
		in.listeners[i].Close()
	}
	in.served.Wait()
}

func (in *distInstance) layers(lc *layerCtx) error {
	lc.m["exec.execute_us"] = lc.spanP50("exec.chain")
	lc.m["cluster.exchange_bytes_per_op"] = lc.perOp("exchange")
	lc.m["cluster.supersteps_per_op"] = lc.perOp("supersteps")
	lc.m["cluster.messages_per_op"] = lc.perOp("messages")
	lc.m["cluster.retries"] = lc.delta("retries")

	// The same traversal driven directly through both transports: the
	// supersteps and exchange statistics are identical by construction,
	// so the ratio is what the wire costs.
	g := in.db.eng.Cat.Graph()
	steps := []cluster.Step{
		{Edge: g.EdgeType("producer"), Forward: false},
		{Edge: g.EdgeType("reviewFor"), Forward: false},
	}
	start := g.VertexType("ProducerVtx")
	country, ok := start.AttrIndex("country")
	if !ok {
		return fmt.Errorf("ProducerVtx has no country attribute")
	}
	inUS := func(v uint32) bool { return start.AttrValue(v, country).Str() == "US" }
	netted, err := cluster.NewWithTransport(g, in.tp)
	if err != nil {
		return err
	}
	sim, err := cluster.NewWithStrategy(g, distWorkers, cluster.Hash)
	if err != nil {
		return err
	}
	var netStats, simStats cluster.Stats
	var terr error
	netD := timeBatched(15, 4, func() {
		if _, netStats, err = netted.Traverse(start, inUS, steps); err != nil {
			terr = err
		}
	})
	simD := timeBatched(15, 4, func() {
		if _, simStats, err = sim.Traverse(start, inUS, steps); err != nil {
			terr = err
		}
	})
	if terr != nil {
		return terr
	}
	if netStats.Messages != simStats.Messages || netStats.VerticesSent != simStats.VerticesSent {
		return fmt.Errorf("transports diverge: net %+v, sim %+v", netStats, simStats)
	}
	lc.m["cluster.net_traverse_us"] = us(netD)
	lc.m["cluster.sim_traverse_us"] = us(simD)
	if simD > 0 {
		lc.m["cluster.wire_ratio"] = float64(netD) / float64(simD)
	}
	return berlinLayers(lc, in.db, []shape{distShape}, in.pool)
}
