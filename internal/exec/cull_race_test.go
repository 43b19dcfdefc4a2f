package exec

import (
	"fmt"
	"strings"
	"testing"
)

// TestChainCullConcurrentTarget is the -race regression for the BQ7
// shape: one hub vertex with thousands of in-neighbours of two types
// behind a variant step. The backward expansion from the neighbours runs
// on several shards that all mark the same hub bit, so every shard reads
// the target bitmap while another one sets it.
func TestChainCullConcurrentTarget(t *testing.T) {
	const n = 4096
	var offers, reviews strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&offers, "o%d,h\n", i)
		fmt.Fprintf(&reviews, "r%d,h\n", i)
	}
	e := newTestEngine(map[string]string{
		"hubs.csv": "h\n", "offers.csv": offers.String(), "reviews.csv": reviews.String(),
	})
	e.Opts.Workers = 4
	mustExec(t, e, `
create table Hubs(id varchar(8))
create table Offers(id varchar(8), hub varchar(8))
create table Reviews(id varchar(8), hub varchar(8))
ingest table Hubs hubs.csv
ingest table Offers offers.csv
ingest table Reviews reviews.csv
create vertex HubVtx(id) from table Hubs
create vertex OfferVtx(id) from table Offers
create vertex ReviewVtx(id) from table Reviews
create edge product with vertices (OfferVtx, HubVtx) where OfferVtx.hub = HubVtx.id
create edge reviewFor with vertices (ReviewVtx, HubVtx) where ReviewVtx.hub = HubVtx.id
`, nil)
	res := mustExec(t, e, `select * from graph HubVtx (id = 'h') <--[ ]-- [ ] into subgraph star`, nil)
	if got := res[0].Subgraph.NumVertices(); got != 2*n+1 {
		t.Fatalf("subgraph vertices = %d, want %d", got, 2*n+1)
	}
	if got := res[0].Subgraph.NumEdges(); got != 2*n {
		t.Fatalf("subgraph edges = %d, want %d", got, 2*n)
	}
}
