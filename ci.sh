#!/bin/sh
# CI gate: formatting, vet, static analysis, build, the full test suite
# under the race detector with a coverage floor, fuzz smoke tests, an
# end-to-end server smoke test, and an open-loop load/latency smoke
# against the running server.
# Run from the repository root; fails fast on the first problem.
#
# Optional environment:
#   CI_ARTIFACTS=dir   copy the coverage profile and the load-smoke report
#                      there (the GitHub workflow uploads the dir)
#   GITHUB_STEP_SUMMARY=file  append the line-count and load-smoke tables
#                      (set automatically by GitHub Actions)
#   FUZZTIME=60s       longer fuzz smoke budget
set -eu

# Fail the run when total statement coverage drops below this floor
# (percent). Raise it as coverage grows; never lower it to make a PR
# pass.
COVERAGE_FLOOR=77.0

# Per-target budget for the fuzz smoke (override for longer local runs:
# FUZZTIME=60s ./ci.sh).
FUZZTIME=${FUZZTIME:-10s}

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== repolint =="
# Stdlib-only repository conventions: every GQL#### diagnostic code is
# registered exactly once and documented in README.md, and all metric
# names follow the graql_* naming convention.
go run ./cmd/repolint

# Static analysis and vulnerability scanning gate the build wherever the
# pinned tools are on PATH (the GitHub workflow installs them; see
# .github/workflows/ci.yml). Local environments without the binaries
# skip with a notice rather than downloading anything mid-run.
echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping (CI runs it)"
fi

echo "== govulncheck =="
if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./...
else
    echo "govulncheck not installed; skipping (CI runs it)"
fi

echo "== go build =="
go build ./...

echo "== bench module (vet + tests under -race) =="
# bench/ is its own Go module (replace graql => ../), so the root
# build and test above never compile it; an API move in internal/server,
# internal/web or internal/client would otherwise break the benchmark
# harness silently.
(cd bench && go vet ./... && go test -race ./...)

# Everything below needs scratch space, and the smoke test starts a
# background server. Install the cleanup trap BEFORE anything that can
# leave a process or directory behind, with the pid guarded so teardown
# works at any point of the script (including failures before the
# server starts or after it already died).
tmpdir=$(mktemp -d)
server_pid=""
dist_pids=""
cleanup() {
    if [ -n "$server_pid" ]; then
        kill "$server_pid" 2>/dev/null || true
        wait "$server_pid" 2>/dev/null || true
    fi
    # Preserve the distributed-smoke logs and the coordinator's trace
    # dump for the artifact upload — cleanup runs on every exit path, so
    # a failure mid-stage still ships its post-mortem record.
    if [ -n "${CI_ARTIFACTS:-}" ] && ls "$tmpdir"/worker*.log >/dev/null 2>&1; then
        mkdir -p "$CI_ARTIFACTS/dist"
        curl -m 2 -fsS http://127.0.0.1:17754/debug/traces \
            >"$CI_ARTIFACTS/dist/coordinator-traces.json" 2>/dev/null || true
        cp "$tmpdir"/worker*.log "$tmpdir"/coordinator.log "$tmpdir"/oracle.log \
            "$tmpdir"/dist-*.out "$CI_ARTIFACTS/dist/" 2>/dev/null || true
    fi
    for pid in $dist_pids; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$tmpdir"
}
trap cleanup EXIT INT TERM

echo "== Go line counts (per package, delta against the parent commit) =="
# ROADMAP: "Net line count is reported in every PR; growth needs a
# reason." The base is the parent commit, or HEAD itself while the tree
# has uncommitted changes; a shallow checkout without it reports totals
# only.
golines() { # golines <root>: "<package dir> <non-test lines> <test lines>"
    (cd "$1" && find . -name '*.go' -not -path './.bench_build/*' -print0 | xargs -0 wc -l) |
        awk '$2 != "total" {
                p = $2; sub(/^\.\//, "", p); n = split(p, a, "/")
                pkg = n == 1 ? "." : (n == 2 ? a[1] : a[1] "/" a[2])
                if (p ~ /_test\.go$/) t[pkg] += $1; else s[pkg] += $1
                seen[pkg] = 1
            }
            END { for (k in seen) printf "%s %d %d\n", k, s[k], t[k] }' | LC_ALL=C sort
}
golines . >"$tmpdir/lines.now"
base=HEAD~1
git diff --quiet HEAD 2>/dev/null || base=HEAD
: >"$tmpdir/lines.base"
if git rev-parse -q --verify "$base^{commit}" >/dev/null 2>&1; then
    mkdir "$tmpdir/base-src"
    git archive "$base" | tar -x -C "$tmpdir/base-src"
    golines "$tmpdir/base-src" >"$tmpdir/lines.base"
fi
LC_ALL=C join -a1 -a2 -e0 -o 0,1.2,1.3,2.2,2.3 "$tmpdir/lines.now" "$tmpdir/lines.base" |
    awk 'BEGIN {
            print "| package | non-test | delta | test | delta |"
            print "|---|---:|---:|---:|---:|"
        }
        {
            printf "| %s | %d | %+d | %d | %+d |\n", $1, $2, $2 - $4, $3, $3 - $5
            S += $2; T += $3; BS += $4; BT += $5
        }
        END { printf "| **total** | %d | %+d | %d | %+d |\n", S, S - BS, T, T - BT }' >"$tmpdir/lines.md"
cat "$tmpdir/lines.md"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    {
        echo "## Go line counts (delta against $base)"
        echo
        cat "$tmpdir/lines.md"
    } >>"$GITHUB_STEP_SUMMARY"
fi

# One invocation runs the whole suite under the race detector AND
# collects the coverage profile, halving test wall time versus separate
# -race and -coverprofile passes.
echo "== go test -race + coverage gate (floor ${COVERAGE_FLOOR}%) =="
# Engines the suite builds leave Options.IRVerify empty, which means
# always: every plan built or reused passes the structural verifier.
go test -race -coverprofile="$tmpdir/cover.out" ./...
total=$(go tool cover -func="$tmpdir/cover.out" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
echo "total statement coverage: ${total}%"
if [ -n "${CI_ARTIFACTS:-}" ]; then
    mkdir -p "$CI_ARTIFACTS"
    cp "$tmpdir/cover.out" "$CI_ARTIFACTS/cover.out"
fi
if awk "BEGIN {exit !($total < $COVERAGE_FLOOR)}"; then
    echo "coverage ${total}% is below the floor of ${COVERAGE_FLOOR}%" >&2
    exit 1
fi

echo "== race stress: shared dictionary indexes, readers during writes =="
# Gathered, cloned and patched varchar columns share their source's
# dictionary index read-only; readers and writers of one published column
# hit it at once here, ten times over. Readers also run beside every kind
# of write on the one write path (DESIGN.md §10): a stalled ingest, output
# and IngestReader, streamed DML, and ingests that fail before publishing.
# Two scripts sharing one prepared handle each read their own result table
# and rebind the one stored plan of its consumer (IntoResultCrossTalk).
# Seeded reads of a named subgraph beside writes that keep it or drop it
# answer as before or fail GQL0107, never from a stale set
# (SeededReadsDuringWrites). A select into a table races create vertex
# and create edge over it: it is refused GQL0108 or every view reads its
# rows (IntoTableRacesViewDDL). A script of two identical counts beside a
# looping insert reads one catalog version: both counts agree
# (ScriptReadsOneVersion).
go test -race -count=10 -run 'SharedDictionary|ConcurrentPrepareExecuteDML|SlowWriterDoesNotHoldReaders|IntoResultCrossTalk|ConcurrentReadersNeverTorn|ConcurrentGraphReadersNeverTorn|IngestIsAtomic|SeededReadsDuringWrites|IntoTableRacesViewDDL|ScriptReadsOneVersion' ./internal/table ./internal/exec

echo "== fuzz smoke (${FUZZTIME} per target) =="
go test -run='^$' -fuzz='^FuzzParse$' -fuzztime="$FUZZTIME" ./internal/parser
go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime="$FUZZTIME" ./internal/ir
go test -run='^$' -fuzz='^FuzzIRVerify$' -fuzztime="$FUZZTIME" ./internal/ir
go test -run='^$' -fuzz='^FuzzAnalyze$' -fuzztime="$FUZZTIME" ./internal/sema
go test -run='^$' -fuzz='^FuzzWALDecode$' -fuzztime="$FUZZTIME" ./internal/storage
go test -run='^$' -fuzz='^FuzzFingerprint$' -fuzztime="$FUZZTIME" ./internal/obs
go test -run='^$' -fuzz='^FuzzFilterKernel$' -fuzztime="$FUZZTIME" ./internal/table
go test -run='^$' -fuzz='^FuzzStringDictionary$' -fuzztime="$FUZZTIME" ./internal/table
go test -run='^$' -fuzz='^FuzzTextExecRoutes$' -fuzztime="$FUZZTIME" ./internal/exec
go test -run='^$' -fuzz='^FuzzViewMaintenance$' -fuzztime="$FUZZTIME" ./internal/exec
go test -run='^$' -fuzz='^FuzzWireCodec$' -fuzztime="$FUZZTIME" ./internal/server
go test -run='^$' -fuzz='^FuzzWorkerFrame$' -fuzztime="$FUZZTIME" ./internal/cluster

echo "== graql vet gate =="
# The shipped example scripts must vet clean (exit 0), and the seeded
# broken corpus must be rejected (exit 1) — both directions of the
# static-analysis front-end are exercised on every run. The golden-file
# tests cover the exact per-diagnostic output; this gates the CLI.
go build -o "$tmpdir/graql" ./cmd/graql
"$tmpdir/graql" -vet examples/*.graql
for f in testdata/vet/*_errors.graql; do
    if "$tmpdir/graql" -vet "$f" >/dev/null 2>&1; then
        echo "vet accepted seeded-error corpus file $f" >&2
        exit 1
    fi
done

echo "== smoke: server + observability endpoints =="
# Boot a traced server with the Berlin sf=1 dataset, an HTTP front-end,
# a default query deadline and admission control; run one query through
# the TCP client, then probe the liveness, metrics and trace endpoints.
go build -o "$tmpdir/gems-server" ./cmd/gems-server
go build -o "$tmpdir/gems-client" ./cmd/gems-client
"$tmpdir/gems-server" -addr 127.0.0.1:17687 -http 127.0.0.1:17688 \
    -berlin 1 -traces 16 -log-level info \
    -default-timeout 30s -max-inflight 8 -max-queue 8 \
    >"$tmpdir/server.log" 2>&1 &
server_pid=$!
for i in $(seq 1 50); do
    if "$tmpdir/gems-client" -addr 127.0.0.1:17687 ping >/dev/null 2>&1; then
        break
    fi
    if [ "$i" = 50 ]; then
        echo "server did not become ready" >&2
        cat "$tmpdir/server.log" >&2
        exit 1
    fi
    sleep 0.2
done
echo 'select * from graph ProducerVtx ( ) <--producer-- ProductVtx ( ) into subgraph SmokeSG' |
    "$tmpdir/gems-client" -addr 127.0.0.1:17687 -trace -timeout 10s exec - >"$tmpdir/query.out" 2>&1
grep -q "SmokeSG" "$tmpdir/query.out"
# A traced write shows each of its phases under the statement span, the
# spans DML EXPLAIN ANALYZE renders (DESIGN.md §6): the verb, one span
# per maintained view, the commit. The where clause matches no row, so
# every later stage sees the same data.
echo "update Products set propertyNumeric_1 = propertyNumeric_1 where id = 'no-such-product'" |
    "$tmpdir/gems-client" -addr 127.0.0.1:17687 -trace -timeout 10s exec - >"$tmpdir/dml.out" 2>&1
grep -q "updated 0 row" "$tmpdir/dml.out"
curl -fsS http://127.0.0.1:17688/debug/traces >"$tmpdir/dml-traces.out"
grep -q '"action":"update","detail":"table Products"' "$tmpdir/dml-traces.out"
grep -Eq '"action":"(carry|patch)-(vertex|edge)"' "$tmpdir/dml-traces.out"
grep -q '"action":"commit"' "$tmpdir/dml-traces.out"
# A graph select into a table that projects one step is answered from the
# reduced sets, and EXPLAIN names the route (DESIGN.md §4): BQ6's shape
# takes reduce-only, BQ1's count.
cat >"$tmpdir/routes.graql" <<'EOF'
explain select distinct u.id from graph
ProducerVtx (country = %Country1%)
<--producer-- ProductVtx
<--reviewFor-- ReviewVtx
--reviewer--> def u: PersonVtx
into table T6

explain select TypeVtx.id from graph
PersonVtx (country = %Country2%)
<--reviewer-- ReviewVtx
--reviewFor--> foreach y: ProductVtx
--producer--> ProducerVtx (country = %Country1%)
and (y --type--> TypeVtx)
into table T1
EOF
"$tmpdir/gems-client" -addr 127.0.0.1:17687 -timeout 10s \
    exec "$tmpdir/routes.graql" Country1=US Country2=DE >"$tmpdir/routes.out" 2>&1
grep -q 'strategy | reduce-only route' "$tmpdir/routes.out"
grep -q 'strategy | count route' "$tmpdir/routes.out"
# A subgraph select over an acyclic pattern (dist_chain's shape) is
# captured from the reducer's exact sets, and EXPLAIN names that route.
echo 'explain select * from graph ProducerVtx (country = %Country%) <--producer-- ProductVtx (propertyNumeric_1 > %Lower%) <--reviewFor-- ReviewVtx into subgraph CaptureSG' |
    "$tmpdir/gems-client" -addr 127.0.0.1:17687 -timeout 10s \
        exec - Country=US Lower=500 >"$tmpdir/capture.out" 2>&1
grep -q 'strategy | reduce-only route' "$tmpdir/capture.out"
curl -fsS http://127.0.0.1:17688/healthz | grep -q '"ok":true'
curl -fsS http://127.0.0.1:17688/readyz | grep -q '"ok":true'
curl -fsS http://127.0.0.1:17688/metrics >"$tmpdir/metrics.out"
grep -q 'graql_queries_total' "$tmpdir/metrics.out"
grep -q 'graql_queries_in_flight' "$tmpdir/metrics.out"
grep -q 'graql_queries_rejected_total' "$tmpdir/metrics.out"
grep -q 'graql_queries_canceled_total' "$tmpdir/metrics.out"
grep -q 'graql_queries_timeout_total' "$tmpdir/metrics.out"
curl -fsS http://127.0.0.1:17688/debug/traces | grep -c '"spanCount"' >/dev/null
# Per-statement observability: the exec above must have registered a
# statement shape, and both debug tables must serve JSON.
curl -fsS http://127.0.0.1:17688/debug/statements >"$tmpdir/statements.out"
grep -q '"fingerprint"' "$tmpdir/statements.out"
curl -fsS http://127.0.0.1:17688/debug/queries | grep -q '"queries"'
# Request bodies are bounded: 17 MiB of input is refused with 413
# rather than buffered.
big_code=$({
    printf '{"script": "'
    head -c 17825792 /dev/zero | tr '\0' x
    printf '"}'
} | curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @- http://127.0.0.1:17688/query)
if [ "$big_code" != "413" ]; then
    echo "oversized /query body: HTTP $big_code, want 413" >&2
    exit 1
fi

echo "== smoke: prepared statements over both wires =="
# Prepare over TCP, execute the same handle over HTTP (the registry is
# shared between front-ends), then execute and deallocate over TCP.
echo 'select top 3 id from table Types order by id asc' >"$tmpdir/prep.graql"
stmt=$("$tmpdir/gems-client" -addr 127.0.0.1:17687 prepare "$tmpdir/prep.graql")
curl -fsS -X POST http://127.0.0.1:17688/execute \
    -d "{\"stmt\": \"$stmt\"}" | grep -q '"ok":true'
"$tmpdir/gems-client" -addr 127.0.0.1:17687 execute "$stmt" | grep -q 't1'
"$tmpdir/gems-client" -addr 127.0.0.1:17687 deallocate "$stmt" >/dev/null
if "$tmpdir/gems-client" -addr 127.0.0.1:17687 execute "$stmt" >/dev/null 2>&1; then
    echo "execute of a deallocated handle must fail" >&2
    exit 1
fi

echo "== smoke: one script cache behind both wires =="
# The same text exec twice over TCP and once over HTTP: both wires reach
# the engine's one script cache, so the second and third are served from
# the plan the first stored (hits +2 at least); an insert then publishes a
# new version of the table, and the re-exec reads it through the stored
# plan, rebound to the new version of the same schema (DESIGN.md §12): it
# sees the new row and analyzes nothing (hits +1, misses +0).
plancache() { # plancache hits|misses: the counter's current value
    curl -fsS http://127.0.0.1:17688/metrics |
        awk -v name="graql_plancache_$1_total" '$1 == name { print $2 }'
}
printf 'create table CacheSmoke(id integer)\ninsert into CacheSmoke values (1)' |
    "$tmpdir/gems-client" -addr 127.0.0.1:17687 exec - >/dev/null 2>&1
cache_q='select count(*) as c from table CacheSmoke'
printf '%s' "$cache_q" >"$tmpdir/cache.graql"
"$tmpdir/gems-client" -addr 127.0.0.1:17687 exec "$tmpdir/cache.graql" >/dev/null 2>&1
hits0=$(plancache hits)
"$tmpdir/gems-client" -addr 127.0.0.1:17687 exec "$tmpdir/cache.graql" >/dev/null 2>&1
curl -fsS -X POST http://127.0.0.1:17688/query -d "{\"script\": \"$cache_q\"}" | grep -q '"rows":\[\["1"\]\]'
hits1=$(plancache hits)
misses1=$(plancache misses)
echo 'insert into CacheSmoke values (2)' | "$tmpdir/gems-client" -addr 127.0.0.1:17687 exec - >/dev/null 2>&1
curl -fsS -X POST http://127.0.0.1:17688/query -d "{\"script\": \"$cache_q\"}" | grep -q '"rows":\[\["2"\]\]'
hits2=$(plancache hits)
misses2=$(plancache misses)
if [ "$((hits1 - hits0))" -lt 2 ] || [ "$((hits2 - hits1))" -ne 1 ] || [ "$((misses2 - misses1))" -ne 0 ]; then
    echo "script cache smoke: hits $hits0 -> $hits1 (want +2) -> $hits2 (want +1), misses $misses1 -> $misses2 (want +0)" >&2
    exit 1
fi

echo "== load smoke: open-loop serving-path gate (100 QPS x 5s) =="
# Drive the running smoke server through the admission gate with the
# open-loop generator: prepared Berlin executes at a fixed rate across
# pipelined connections. Any non-overloaded error fails the build;
# "overloaded" rejections are deliberate admission control, not errors.
"$tmpdir/gems-client" loadgen -addr 127.0.0.1:17687 \
    -qps 100 -duration 5s -conns 4 -pipeline 8 \
    -report "$tmpdir/loadgen-report.json" >"$tmpdir/loadgen.out" 2>&1 || {
    echo "load generator failed:" >&2
    cat "$tmpdir/loadgen.out" >&2
    exit 1
}
cat "$tmpdir/loadgen.out"
loadline=$(grep '^LOADGEN ' "$tmpdir/loadgen.out")
lg_errors=$(echo "$loadline" | sed -n 's/.* errors=\([0-9]*\).*/\1/p')
lg_p99=$(echo "$loadline" | sed -n 's/.*p99_us=\([0-9]*\).*/\1/p')
if [ -z "$lg_errors" ] || [ -z "$lg_p99" ]; then
    echo "load smoke: could not parse the LOADGEN summary line" >&2
    exit 1
fi
if [ "$lg_errors" -ne 0 ]; then
    echo "load smoke: $lg_errors unexpected errors (see report above)" >&2
    exit 1
fi
# Generous sanity bound only — shared runners are too noisy for a tight
# latency gate. A p99 beyond 2 s on this tiny workload means the serving
# path itself is broken, not the runner.
if [ "$lg_p99" -gt 2000000 ]; then
    echo "load smoke: p99 ${lg_p99}us exceeds the 2s sanity bound" >&2
    exit 1
fi
if [ -n "${CI_ARTIFACTS:-}" ]; then
    mkdir -p "$CI_ARTIFACTS"
    cp "$tmpdir/loadgen-report.json" "$CI_ARTIFACTS/loadgen-report.json"
fi
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    {
        echo "## Load smoke (open loop, 100 QPS x 5s, prepared executes)"
        echo
        sed -n '/^| metric/,/^$/p' "$tmpdir/loadgen.out"
        echo
        echo "\`$loadline\`"
    } >>"$GITHUB_STEP_SUMMARY"
fi

echo "== smoke: live query table (ps -> cancelq round trip) =="
# Build a complete digraph dense enough that a 4-hop pattern with a
# contradictory final condition (id < A.id and id > A.id) runs for many
# seconds while returning zero rows, fire it from a background client,
# find it in the live query table, kill it by id, and assert the
# original caller got the structured "canceled" code.
awk 'BEGIN { for (i = 0; i < 120; i++) printf "n%03d\n", i }' >"$tmpdir/nodes.csv"
awk 'BEGIN { for (i = 0; i < 120; i++) for (j = 0; j < 120; j++) printf "n%03d,n%03d\n", i, j }' >"$tmpdir/dense.csv"
{
    echo "create table Node(id varchar(8))"
    echo "create table Dense(src varchar(8), dst varchar(8))"
    echo "ingest table Node '$tmpdir/nodes.csv'"
    echo "ingest table Dense '$tmpdir/dense.csv'"
    echo "create vertex NV(id) from table Node"
    echo "create edge e with vertices (NV as A, NV as B) from table Dense where Dense.src = A.id and Dense.dst = B.id"
} | "$tmpdir/gems-client" -addr 127.0.0.1:17687 exec - >/dev/null 2>&1
echo 'select A.id from graph def A: NV ( ) --e--> def B: NV ( ) --e--> def C: NV ( ) --e--> def D: NV (id < A.id and id > A.id)' |
    "$tmpdir/gems-client" -addr 127.0.0.1:17687 -timeout 60s exec - >"$tmpdir/runaway.out" 2>&1 &
runaway_pid=$!
qid=""
for i in $(seq 1 100); do
    qid=$("$tmpdir/gems-client" -addr 127.0.0.1:17687 ps |
        awk '$3 == "running" && / --e--> / { print $1; exit }')
    if [ -n "$qid" ]; then
        break
    fi
    sleep 0.1
done
if [ -z "$qid" ]; then
    echo "runaway query never appeared in ps" >&2
    "$tmpdir/gems-client" -addr 127.0.0.1:17687 ps >&2 || true
    exit 1
fi
"$tmpdir/gems-client" -addr 127.0.0.1:17687 cancelq "$qid"
wait "$runaway_pid" 2>/dev/null || true
grep -q 'canceled' "$tmpdir/runaway.out"
# The canceled shape is aggregated in the statement statistics too.
"$tmpdir/gems-client" -addr 127.0.0.1:17687 statements | grep -q ' --e--> '
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
grep -q '"trace_id"' "$tmpdir/server.log"

echo "== smoke: -token guards both wires =="
# One service sits behind TCP and HTTP, so the token must gate both:
# requests without it fail with code auth (401 over HTTP); the probes
# and the scrape endpoint stay open.
"$tmpdir/gems-server" -addr 127.0.0.1:17690 -http 127.0.0.1:17691 -token smoketok \
    -log-level off >"$tmpdir/token-server.log" 2>&1 &
server_pid=$!
for i in $(seq 1 50); do
    if "$tmpdir/gems-client" -addr 127.0.0.1:17690 -token smoketok ping >/dev/null 2>&1; then
        break
    fi
    if [ "$i" = 50 ]; then
        echo "token server did not become ready" >&2
        cat "$tmpdir/token-server.log" >&2
        exit 1
    fi
    sleep 0.2
done
if "$tmpdir/gems-client" -addr 127.0.0.1:17690 ping >/dev/null 2>&1; then
    echo "TCP ping without the token must fail" >&2
    exit 1
fi
expect_401() { # expect_401 <path> [curl args...]
    path=$1
    shift
    code=$(curl -s -o "$tmpdir/auth.out" -w '%{http_code}' "$@" "http://127.0.0.1:17691$path")
    if [ "$code" != "401" ] || ! grep -q '"code":"auth"' "$tmpdir/auth.out"; then
        echo "HTTP $path without the token: $code, want 401 with code auth" >&2
        cat "$tmpdir/auth.out" >&2
        exit 1
    fi
}
expect_401 /query -X POST -d '{"script": "create table T(a integer)"}'
expect_401 /execute -X POST -d '{"stmt": "s1"}' -H 'Authorization: Bearer wrong'
expect_401 /catalog
expect_401 /debug/statements
curl -fsS -H 'Authorization: Bearer smoketok' http://127.0.0.1:17691/catalog >/dev/null
curl -fsS http://127.0.0.1:17691/healthz | grep -q '"ok":true'
curl -fsS http://127.0.0.1:17691/metrics >/dev/null
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "== smoke: crash recovery (kill -9 a durable server) =="
# Boot a durable server, stream acknowledged single-row inserts at it,
# kill -9 mid-stream, restart on the same store directory, and assert
# every write the client saw acknowledged is still there. This is the
# end-to-end durability contract: an fsynced WAL record per committed
# statement, torn-tail truncation, snapshot+WAL replay on restart.
storedir="$tmpdir/store"
start_durable_server() {
    "$tmpdir/gems-server" -addr 127.0.0.1:17689 -store "$storedir" \
        -log-level off >>"$tmpdir/recovery-server.log" 2>&1 &
    server_pid=$!
    for i in $(seq 1 50); do
        if "$tmpdir/gems-client" -addr 127.0.0.1:17689 ping >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    echo "durable server did not become ready" >&2
    cat "$tmpdir/recovery-server.log" >&2
    exit 1
}
start_durable_server
echo 'create table KV(id integer, v varchar(8))' |
    "$tmpdir/gems-client" -addr 127.0.0.1:17689 exec - >/dev/null
: >"$tmpdir/acked"
(
    i=0
    while [ "$i" -lt 500 ]; do
        if echo "insert into KV values ($i, 'x')" |
            "$tmpdir/gems-client" -addr 127.0.0.1:17689 exec - >/dev/null 2>&1; then
            echo "$i" >>"$tmpdir/acked"
        else
            exit 0 # server is gone; stop writing
        fi
        i=$((i + 1))
    done
) &
writer_pid=$!
sleep 1
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
wait "$writer_pid" 2>/dev/null || true
acked=$(wc -l <"$tmpdir/acked" | tr -d ' ')
if [ "$acked" -eq 0 ]; then
    echo "no writes were acknowledged before the crash" >&2
    exit 1
fi
start_durable_server
# Acknowledged ids are 0..acked-1; all of them must have survived.
echo "select count(*) as c from table KV where id < $acked" |
    "$tmpdir/gems-client" -addr 127.0.0.1:17689 exec - >"$tmpdir/recovered.out"
if ! grep -qx "$acked" "$tmpdir/recovered.out"; then
    echo "lost acknowledged writes: wanted $acked surviving rows, got:" >&2
    cat "$tmpdir/recovered.out" >&2
    exit 1
fi
echo "kill -9 lost none of $acked acknowledged writes"
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "== smoke: distributed cluster (3 networked worker shards vs in-process oracle) =="
# Boot three worker processes each owning one hash partition of the same
# generated Berlin sf=1 dataset, a coordinator that scatters path-query
# supersteps to them over TCP, and a single-process oracle server that
# simulates the same 3-partition cluster in-process. The same queries
# must render byte-for-byte identically through both paths, and the
# coordinator's metrics must prove the networked path actually ran, the
# oracle's that it simulated the cluster rather than answering locally.
# -workers 1 on both query servers keeps row order deterministic.
w0_pid="" w1_pid="" w2_pid=""
for p in 0 1 2; do
    "$tmpdir/gems-server" -worker -partition "$p" -partitions 3 -berlin 1 \
        -addr "127.0.0.1:1775$p" -log-level info \
        >"$tmpdir/worker$p.log" 2>&1 &
    eval "w${p}_pid=$!"
    dist_pids="$dist_pids $!"
done
"$tmpdir/gems-server" -addr 127.0.0.1:17753 -http 127.0.0.1:17754 -berlin 1 \
    -dist 127.0.0.1:17750,127.0.0.1:17751,127.0.0.1:17752 \
    -dist-timeout 2s -dist-retries 1 -workers 1 -log-level info \
    >"$tmpdir/coordinator.log" 2>&1 &
dist_pids="$dist_pids $!"
"$tmpdir/gems-server" -addr 127.0.0.1:17755 -http 127.0.0.1:17756 -berlin 1 \
    -partitions 3 -workers 1 -log-level off >"$tmpdir/oracle.log" 2>&1 &
dist_pids="$dist_pids $!"
for srv in 17753 17755; do
    for i in $(seq 1 100); do
        if "$tmpdir/gems-client" -addr "127.0.0.1:$srv" ping >/dev/null 2>&1; then
            break
        fi
        if [ "$i" = 100 ]; then
            echo "distributed smoke: server on :$srv did not become ready" >&2
            cat "$tmpdir/coordinator.log" "$tmpdir"/worker*.log >&2
            exit 1
        fi
        sleep 0.2
    done
done
# Berlin queries: a variant-step pattern captured into a subgraph (BQ7
# shape) and a four-hop review chain into a table (BQ6 shape, with its
# last step's persons conditioned too). Both take the reduce-only route.
# The capture reads the reducer's exact sets, and its passes scatter like
# the reducer's: each expansion across a concrete edge type is a
# superstep. For the table query the reducer's passes scatter first:
# every step between the two conditions is expanded as a superstep. The
# semi-join pass rooted at u then walks each tree edge from the side that
# holds a set; an expansion scatters like the reducer's, and a probe of
# the coordinator's adjacency, which it takes where that walk is shorter,
# scatters nothing.
cat >"$tmpdir/dist-chain.graql" <<'EOF'
select * from graph ProductVtx (id = %Product1%) <--[ ]-- [ ] into subgraph DistSG
EOF
cat >"$tmpdir/dist-table.graql" <<'EOF'
select distinct u.id from graph
ProducerVtx (country = %Country1%)
<--producer-- ProductVtx ( )
<--reviewFor-- ReviewVtx ( )
--reviewer--> def u: PersonVtx (country = %Country2%)
EOF
counter() { # counter <http port> <name>: one counter off a server's /metrics
    curl -fsS "http://127.0.0.1:$1/metrics" |
        awk -v name="$2" '$1 == name { n = $2 } END { print n + 0 }'
}
dist_supersteps() { counter 17754 graql_dist_supersteps_total; }
oracle_rounds() { counter 17756 graql_cluster_rounds_total; }
dist_same() { # dist_same <name>: run <name>.graql on both servers, diff
    # Per-request trace ids legitimately differ between the two servers;
    # everything else must match byte-for-byte.
    for srv in net:17753 sim:17755; do
        "$tmpdir/gems-client" -addr "127.0.0.1:${srv#*:}" -timeout 30s \
            exec "$tmpdir/$1.graql" Product1=p1 Country1=US Country2=DE 2>&1 |
            grep -v '^trace: ' >"$tmpdir/$1-${srv%:*}.out"
    done
    if ! diff -u "$tmpdir/$1-sim.out" "$tmpdir/$1-net.out"; then
        echo "networked $1 results differ from the in-process oracle" >&2
        exit 1
    fi
}
dist_same dist-chain
grep -q 'DistSG' "$tmpdir/dist-chain-net.out"
# The networked path must actually have run, for the into-table query on
# its own too: the coordinator's superstep count rises across each. So
# must the oracle's simulated rounds, or the diff compared two local runs.
chain_steps=$(dist_supersteps)
chain_rounds=$(oracle_rounds)
dist_same dist-table
supersteps=$(dist_supersteps)
rounds=$(oracle_rounds)
if [ "$chain_steps" -eq 0 ] || [ "$supersteps" -le "$chain_steps" ]; then
    echo "supersteps over the wire: chain $chain_steps, into-table $((supersteps - chain_steps)); want both > 0" >&2
    exit 1
fi
if [ "$chain_rounds" -eq 0 ] || [ "$rounds" -le "$chain_rounds" ]; then
    echo "oracle's simulated rounds: chain $chain_rounds, into-table $((rounds - chain_rounds)); want both > 0" >&2
    exit 1
fi
if [ "$(wc -l <"$tmpdir/dist-table-net.out")" -lt 2 ]; then
    echo "the into-table query returned no rows:" >&2
    cat "$tmpdir/dist-table-net.out" >&2
    exit 1
fi
# Every worker shard reports healthy.
curl -fsS http://127.0.0.1:17754/metrics >"$tmpdir/dist-metrics.out"
grep -q 'graql_dist_rpc_latency_seconds' "$tmpdir/dist-metrics.out"
grep -q 'graql_dist_exchange_bytes_total' "$tmpdir/dist-metrics.out"
healthy=$("$tmpdir/gems-client" -addr 127.0.0.1:17753 workers | grep -c 'healthy')
if [ "$healthy" -ne 3 ]; then
    echo "expected 3 healthy worker shards, saw $healthy" >&2
    exit 1
fi
curl -fsS http://127.0.0.1:17754/readyz | grep -q '"ok":true'
echo "networked results match the in-process oracle ($supersteps supersteps over the wire, $rounds simulated)"

echo "== smoke: distributed fault injection (kill -9 a worker shard) =="
# Kill one worker shard outright: the next chain query and the next
# into-table query must come back within the RPC deadline with the
# structured "partial" error code (no hang, no panic), /readyz must flip
# to 503 naming the degraded workers, and the workers table must show the
# shard down.
kill -9 "$w1_pid" 2>/dev/null || true
wait "$w1_pid" 2>/dev/null || true
if echo 'select * from graph ProductVtx (id = %Product1%) <--[ ]-- [ ] into subgraph FaultSG' |
    "$tmpdir/gems-client" -addr 127.0.0.1:17753 -timeout 15s -retries 0 \
        exec - Product1=p1 >"$tmpdir/dist-partial.out" 2>&1; then
    echo "chain query over a dead worker must fail" >&2
    cat "$tmpdir/dist-partial.out" >&2
    exit 1
fi
grep -q 'server error (partial)' "$tmpdir/dist-partial.out"
if "$tmpdir/gems-client" -addr 127.0.0.1:17753 -timeout 15s -retries 0 \
    exec "$tmpdir/dist-table.graql" Country1=US Country2=DE >"$tmpdir/dist-partial-table.out" 2>&1; then
    echo "into-table query over a dead worker must fail" >&2
    cat "$tmpdir/dist-partial-table.out" >&2
    exit 1
fi
grep -q 'server error (partial)' "$tmpdir/dist-partial-table.out"
readyz_code=$(curl -s -o "$tmpdir/dist-readyz.out" -w '%{http_code}' http://127.0.0.1:17754/readyz)
if [ "$readyz_code" != "503" ]; then
    echo "readyz must report 503 with a dead worker, got $readyz_code" >&2
    cat "$tmpdir/dist-readyz.out" >&2
    exit 1
fi
grep -q 'degraded distributed workers' "$tmpdir/dist-readyz.out"
"$tmpdir/gems-client" -addr 127.0.0.1:17753 workers | grep -q 'down'
echo "dead worker surfaced as structured partial + degraded readiness"
# The cleanup trap copies the distributed logs into CI_ARTIFACTS and
# tears the cluster down; nothing more to do here.

echo "CI OK"
