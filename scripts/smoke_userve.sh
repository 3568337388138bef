#!/bin/sh
# Smoke test for the userve mining service.
#
# Default (local) mode: boot the real binary, register a generated profile
# over HTTP, run one /mine query and assert 200 + a non-empty result set,
# exercise /ingest + the version bump, register a window_size 50 dataset and
# assert an ingest past the window reports n 50 and evicted true, assert a
# register body carrying an unknown field (refresh_every) answers 400,
# assert a tiny-timeout /mine aborts its in-flight job promptly (503,
# canceled count bumped, server still healthy), and shut down.
# Mirrored by the "Server smoke" CI job; run locally via `make smoke-server`.
#
# `smoke_userve.sh shards` instead boots a real multi-process cluster — two
# ushard shard servers plus a userve coordinator routing phase 1 over them —
# and asserts the RPC-backed /mine document is byte-identical to the
# in-process path, including after an /ingest version bump invalidates the
# shards' pinned slices. Mirrored by the "Sharded mining (multi-process)"
# CI job; run locally via `make smoke-shards`.
#
# `smoke_userve.sh metrics` boots the same three-process cluster and checks
# the observability surface: /metrics on the coordinator and both shards
# parses as Prometheus text with the expected families, histogram counts
# stay monotonic across scrapes under load, and the sharded /mine leaves
# one stitched trace (coordinator phases + wire-propagated shard spans) at
# /debug/traces. Mirrored by the "Telemetry smoke" CI job; run locally via
# `make smoke-metrics`.
#
# `smoke_userve.sh subscribe` exercises the continuous-query surface with
# the real usub client: subscribe to a dataset over /subscribe (SSE), ingest
# a batch, and assert the streamed snapshot + refresh diff arrive and that
# the refreshed result-set size matches a direct /mine of the grown dataset.
# Mirrored by the "Continuous queries" CI job; run locally via
# `make smoke-subscribe`.
#
# `smoke_userve.sh explain` exercises the query-level observability surface
# against the real 2-shard cluster: POST /explain over the shardrpc backend
# must report the executed plan (partition steps, shard attempt timeline,
# pushed bytes), a repeat GET /explain must report the cache-hit path, a
# plain /mine must then hit the cache, and /metrics must carry the mine
# latency histogram's 0.5 s bucket and the build-info and uptime gauges.
# Mirrored by the "Query observability" CI job; run locally via
# `make smoke-explain`.
set -eu

MODE="${1:-local}"
ADDR="127.0.0.1:18573"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
SERVER_PID=""
SHARD1_PID=""
SHARD2_PID=""
USUB_PID=""
trap 'kill "${SERVER_PID:-}" "${SHARD1_PID:-}" "${SHARD2_PID:-}" "${USUB_PID:-}" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

echo "smoke: building userve"
go build -o "$TMP/userve" ./cmd/userve

wait_healthz() { # wait_healthz URL LOG
    i=0
    until curl -sf --max-time 2 "$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "smoke: FAIL — server at $1 did not come up"
            cat "$2"
            exit 1
        fi
        sleep 0.2
    done
}

check() { # check NAME EXPECTED_STATUS BODY_FILE STATUS
    if [ "$4" != "$2" ]; then
        echo "smoke: FAIL — $1 returned HTTP $4 (want $2)"
        cat "$3"
        exit 1
    fi
    echo "smoke: $1 ok (HTTP $4)"
}

if [ "$MODE" = "shards" ]; then
    echo "smoke: building ushard"
    go build -o "$TMP/ushard" ./cmd/ushard

    SHARD1="127.0.0.1:18671"
    SHARD2="127.0.0.1:18672"
    "$TMP/ushard" -addr "$SHARD1" >"$TMP/ushard1.log" 2>&1 &
    SHARD1_PID=$!
    "$TMP/ushard" -addr "$SHARD2" >"$TMP/ushard2.log" 2>&1 &
    SHARD2_PID=$!
    wait_healthz "http://$SHARD1" "$TMP/ushard1.log"
    wait_healthz "http://$SHARD2" "$TMP/ushard2.log"
    echo "smoke: 2 ushard shard servers up"

    "$TMP/userve" -addr "$ADDR" -shards "$SHARD1,$SHARD2" >"$TMP/userve.log" 2>&1 &
    SERVER_PID=$!
    wait_healthz "$BASE" "$TMP/userve.log"
    echo "smoke: coordinator up with shard pool $SHARD1,$SHARD2"

    # Twin datasets from the same generator: "flat" mines single-shot in
    # the coordinator process, "rpc" scatters phase 1 over the two ushard
    # processes. Bit-identity of the SON decomposition means the /mine
    # documents must match byte for byte.
    STATUS=$(curl -s -o "$TMP/flat.json" -w '%{http_code}' -X POST "$BASE/datasets" \
        -H 'Content-Type: application/json' \
        -d '{"name":"flat","profile":"gazelle","scale":0.01,"seed":7}')
    check "register in-process twin" 201 "$TMP/flat.json" "$STATUS"
    STATUS=$(curl -s -o "$TMP/rpc.json" -w '%{http_code}' -X POST "$BASE/datasets" \
        -H 'Content-Type: application/json' \
        -d '{"name":"rpc","profile":"gazelle","scale":0.01,"seed":7,"shards":2}')
    check "register RPC-sharded twin" 201 "$TMP/rpc.json" "$STATUS"

    MINE='"algorithm":"UApriori","min_esup":0.005'
    STATUS=$(curl -s -o "$TMP/mine_flat.json" -w '%{http_code}' -X POST "$BASE/mine" \
        -H 'Content-Type: application/json' -d "{\"dataset\":\"flat\",$MINE}")
    check "/mine in-process twin" 200 "$TMP/mine_flat.json" "$STATUS"
    STATUS=$(curl -s -o "$TMP/mine_rpc.json" -w '%{http_code}' -X POST "$BASE/mine" \
        -H 'Content-Type: application/json' -d "{\"dataset\":\"rpc\",$MINE}")
    check "/mine RPC-sharded twin" 200 "$TMP/mine_rpc.json" "$STATUS"
    if ! grep -q '"itemset"' "$TMP/mine_flat.json"; then
        echo "smoke: FAIL — /mine returned an empty result set"
        cat "$TMP/mine_flat.json"
        exit 1
    fi
    if ! cmp -s "$TMP/mine_flat.json" "$TMP/mine_rpc.json"; then
        echo "smoke: FAIL — multi-process sharded /mine differs from in-process"
        diff "$TMP/mine_flat.json" "$TMP/mine_rpc.json" | head -20
        exit 1
    fi
    echo "smoke: multi-process sharded /mine is byte-identical to in-process"

    STATUS=$(curl -s -o "$TMP/stats.json" -w '%{http_code}' "$BASE/stats")
    check "/stats" 200 "$TMP/stats.json" "$STATUS"
    if ! grep -Eq '"remote_shards": *2(,|$)' "$TMP/stats.json"; then
        echo "smoke: FAIL — /stats did not report the 2-shard pool"
        cat "$TMP/stats.json"
        exit 1
    fi
    if ! grep -Eq '"shard_repushes": *[1-9]' "$TMP/stats.json"; then
        echo "smoke: FAIL — /stats counted no shard re-pushes (demand population broken)"
        cat "$TMP/stats.json"
        exit 1
    fi
    if grep -Eq '"shard_failovers": *[1-9]' "$TMP/stats.json"; then
        echo "smoke: FAIL — healthy cluster recorded shard failovers"
        cat "$TMP/stats.json"
        exit 1
    fi
    echo "smoke: /stats shows remote_shards=2, re-pushes counted, no failovers"

    STATUS=$(curl -s -o "$TMP/shard_stats.json" -w '%{http_code}' "http://$SHARD1/stats")
    check "shard /stats" 200 "$TMP/shard_stats.json" "$STATUS"
    if ! grep -Eq '"mines": *[1-9]' "$TMP/shard_stats.json"; then
        echo "smoke: FAIL — shard 1 served no phase-1 mines (work did not distribute)"
        cat "$TMP/shard_stats.json"
        exit 1
    fi
    echo "smoke: shard process served phase-1 mines"

    # Coherent invalidation: growing both twins bumps their versions, which
    # must 409 the shards' pinned slices and re-push before the next mine.
    # The grown datasets must still agree byte for byte.
    for DS in flat rpc; do
        STATUS=$(curl -s -o "$TMP/ingest_$DS.json" -w '%{http_code}' -X POST "$BASE/ingest" \
            -H 'Content-Type: application/json' \
            -d "{\"dataset\":\"$DS\",\"transactions\":[\"0:0.9 1:0.5\",\"2:1.0 5:0.25\"]}")
        check "/ingest $DS" 200 "$TMP/ingest_$DS.json" "$STATUS"
    done
    STATUS=$(curl -s -o "$TMP/mine_flat2.json" -w '%{http_code}' -X POST "$BASE/mine" \
        -H 'Content-Type: application/json' -d "{\"dataset\":\"flat\",$MINE}")
    check "post-ingest /mine in-process twin" 200 "$TMP/mine_flat2.json" "$STATUS"
    STATUS=$(curl -s -o "$TMP/mine_rpc2.json" -w '%{http_code}' -X POST "$BASE/mine" \
        -H 'Content-Type: application/json' -d "{\"dataset\":\"rpc\",$MINE}")
    check "post-ingest /mine RPC-sharded twin" 200 "$TMP/mine_rpc2.json" "$STATUS"
    if ! cmp -s "$TMP/mine_flat2.json" "$TMP/mine_rpc2.json"; then
        echo "smoke: FAIL — post-ingest sharded /mine differs from in-process"
        diff "$TMP/mine_flat2.json" "$TMP/mine_rpc2.json" | head -20
        exit 1
    fi
    STATUS=$(curl -s -o "$TMP/shard_stats2.json" -w '%{http_code}' "http://$SHARD1/stats")
    check "shard /stats after ingest" 200 "$TMP/shard_stats2.json" "$STATUS"
    if ! grep -Eq '"stale_rejects": *[1-9]' "$TMP/shard_stats2.json"; then
        echo "smoke: FAIL — shard 1 rejected no stale pins (version invalidation broken)"
        cat "$TMP/shard_stats2.json"
        exit 1
    fi
    echo "smoke: version bump invalidated the shards' slices coherently"

    echo "smoke: PASS (shards)"
    exit 0
fi

if [ "$MODE" = "metrics" ]; then
    echo "smoke: building ushard"
    go build -o "$TMP/ushard" ./cmd/ushard

    SHARD1="127.0.0.1:18671"
    SHARD2="127.0.0.1:18672"
    "$TMP/ushard" -addr "$SHARD1" >"$TMP/ushard1.log" 2>&1 &
    SHARD1_PID=$!
    "$TMP/ushard" -addr "$SHARD2" >"$TMP/ushard2.log" 2>&1 &
    SHARD2_PID=$!
    wait_healthz "http://$SHARD1" "$TMP/ushard1.log"
    wait_healthz "http://$SHARD2" "$TMP/ushard2.log"
    "$TMP/userve" -addr "$ADDR" -shards "$SHARD1,$SHARD2" >"$TMP/userve.log" 2>&1 &
    SERVER_PID=$!
    wait_healthz "$BASE" "$TMP/userve.log"
    echo "smoke: coordinator + 2 shard processes up"

    STATUS=$(curl -s -o "$TMP/obs.json" -w '%{http_code}' -X POST "$BASE/datasets" \
        -H 'Content-Type: application/json' \
        -d '{"name":"obs","profile":"gazelle","scale":0.01,"seed":7,"shards":2}')
    check "register RPC-sharded dataset" 201 "$TMP/obs.json" "$STATUS"

    MINE='"dataset":"obs","algorithm":"UApriori","min_esup":0.005'
    STATUS=$(curl -s -D "$TMP/mine_hdrs.txt" -o "$TMP/mine.json" -w '%{http_code}' \
        -X POST "$BASE/mine" -H 'Content-Type: application/json' -d "{$MINE}")
    check "sharded /mine" 200 "$TMP/mine.json" "$STATUS"
    TRACE_ID=$(awk -F': ' 'tolower($1) == "x-umine-trace-id" { gsub(/\r/, "", $2); print $2 }' "$TMP/mine_hdrs.txt")
    if [ -z "$TRACE_ID" ]; then
        echo "smoke: FAIL — /mine response carried no X-Umine-Trace-Id header"
        cat "$TMP/mine_hdrs.txt"
        exit 1
    fi
    echo "smoke: /mine traced as $TRACE_ID"

    # scrape NAME URL FILE: fetch /metrics and require every sample line to
    # parse as Prometheus text exposition (name{labels} value).
    scrape() {
        STATUS=$(curl -s -o "$3" -w '%{http_code}' "$2/metrics")
        check "$1 /metrics" 200 "$3" "$STATUS"
        BAD=$(grep -Ev '^(#|$)' "$3" | grep -Evc '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$' || true)
        if [ "$BAD" != "0" ]; then
            echo "smoke: FAIL — $1 /metrics has $BAD malformed exposition lines"
            grep -Ev '^(#|$)' "$3" | grep -Ev '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$' | head -5
            exit 1
        fi
    }
    # metric FILE NAME: print the sample value for an exact series name.
    metric() {
        awk -v n="$2" '$1 == n { print $2 }' "$1"
    }

    scrape "coordinator" "$BASE" "$TMP/m1.txt"
    for FAM in umine_requests_total umine_sharded_mines_total umine_in_flight \
        umine_mine_duration_seconds_count umine_shard_phase1_duration_seconds_count \
        umine_merge_duration_seconds_count umine_phase2_duration_seconds_count; do
        if ! grep -q "^$FAM" "$TMP/m1.txt"; then
            echo "smoke: FAIL — coordinator /metrics missing $FAM"
            exit 1
        fi
    done
    if ! grep -q 'umine_mine_duration_seconds_bucket{le="+Inf"}' "$TMP/m1.txt"; then
        echo "smoke: FAIL — coordinator histogram has no +Inf bucket"
        exit 1
    fi
    echo "smoke: coordinator /metrics parses with all expected families"

    N=1
    for SH in "$SHARD1" "$SHARD2"; do
        scrape "shard $N" "http://$SH" "$TMP/shard$N.txt"
        for FAM in ushard_pushes_total ushard_mines_total ushard_mine1_duration_seconds_count; do
            if ! grep -q "^$FAM" "$TMP/shard$N.txt"; then
                echo "smoke: FAIL — shard $N /metrics missing $FAM"
                exit 1
            fi
        done
        MINES=$(metric "$TMP/shard$N.txt" ushard_mines_total)
        if [ "${MINES:-0}" = "0" ]; then
            echo "smoke: FAIL — shard $N served no phase-1 mines"
            exit 1
        fi
        N=$((N + 1))
    done
    echo "smoke: both shard /metrics parse and counted phase-1 mines"

    # Histogram counts are monotonic across scrapes while load continues.
    C1=$(metric "$TMP/m1.txt" umine_mine_duration_seconds_count)
    STATUS=$(curl -s -o "$TMP/mine2.json" -w '%{http_code}' -X POST "$BASE/mine" \
        -H 'Content-Type: application/json' -d "{$MINE,\"no_cache\":true}")
    check "second sharded /mine" 200 "$TMP/mine2.json" "$STATUS"
    scrape "coordinator (rescrape)" "$BASE" "$TMP/m2.txt"
    C2=$(metric "$TMP/m2.txt" umine_mine_duration_seconds_count)
    if ! awk -v a="$C1" -v b="$C2" 'BEGIN { exit !(b > a) }'; then
        echo "smoke: FAIL — mine histogram count not monotonic ($C1 -> $C2)"
        exit 1
    fi
    echo "smoke: histogram counts monotonic across scrapes ($C1 -> $C2)"

    # The first mine's trace is retained and stitches the coordinator's
    # phase spans with the shard spans that rode back over the wire.
    STATUS=$(curl -s -o "$TMP/traces.json" -w '%{http_code}' "$BASE/debug/traces")
    check "/debug/traces" 200 "$TMP/traces.json" "$STATUS"
    STATUS=$(curl -s -o "$TMP/trace.json" -w '%{http_code}' "$BASE/debug/traces/$TRACE_ID")
    check "/debug/traces/{id}" 200 "$TMP/trace.json" "$STATUS"
    for SPAN in '"phase1"' '"shard 0"' '"shard 1"' '"merge"' '"phase2"' '"mine1 obs"'; do
        if ! grep -q "$SPAN" "$TMP/trace.json"; then
            echo "smoke: FAIL — trace $TRACE_ID missing span $SPAN"
            cat "$TMP/trace.json"
            exit 1
        fi
    done
    echo "smoke: sharded mine left one stitched trace (coordinator + shard spans)"

    echo "smoke: PASS (metrics)"
    exit 0
fi

if [ "$MODE" = "explain" ]; then
    echo "smoke: building ushard"
    go build -o "$TMP/ushard" ./cmd/ushard

    SHARD1="127.0.0.1:18671"
    SHARD2="127.0.0.1:18672"
    "$TMP/ushard" -addr "$SHARD1" >"$TMP/ushard1.log" 2>&1 &
    SHARD1_PID=$!
    "$TMP/ushard" -addr "$SHARD2" >"$TMP/ushard2.log" 2>&1 &
    SHARD2_PID=$!
    wait_healthz "http://$SHARD1" "$TMP/ushard1.log"
    wait_healthz "http://$SHARD2" "$TMP/ushard2.log"
    "$TMP/userve" -addr "$ADDR" -shards "$SHARD1,$SHARD2" >"$TMP/userve.log" 2>&1 &
    SERVER_PID=$!
    wait_healthz "$BASE" "$TMP/userve.log"
    echo "smoke: coordinator + 2 shard processes up"

    STATUS=$(curl -s -o "$TMP/exq.json" -w '%{http_code}' -X POST "$BASE/datasets" \
        -H 'Content-Type: application/json' \
        -d '{"name":"exq","profile":"gazelle","scale":0.01,"seed":7,"shards":2}')
    check "register RPC-sharded dataset" 201 "$TMP/exq.json" "$STATUS"

    # A cold POST /explain runs the query exactly as /mine would — over the
    # 2-shard RPC backend — and must report the executed plan: the backend,
    # per-shard partition steps, the shard attempt timeline, and the bytes
    # the scatter pushed over the wire.
    STATUS=$(curl -s -o "$TMP/explain.json" -w '%{http_code}' -X POST "$BASE/explain" \
        -H 'Content-Type: application/json' \
        -d '{"dataset":"exq","algorithm":"UApriori","min_esup":0.005}')
    check "POST /explain (cold, shardrpc)" 200 "$TMP/explain.json" "$STATUS"
    for WANT in '"backend": "shardrpc"' '"path": "mined"' '"shards": 2' \
        '"phase": "partition"' '"kind": "shard"' '"kind": "attempt"'; do
        if ! grep -q "$WANT" "$TMP/explain.json"; then
            echo "smoke: FAIL — cold /explain missing $WANT"
            cat "$TMP/explain.json"
            exit 1
        fi
    done
    if ! grep -Eq '"bytes_pushed": *[1-9]' "$TMP/explain.json"; then
        echo "smoke: FAIL — cold /explain accounted no pushed bytes"
        cat "$TMP/explain.json"
        exit 1
    fi
    if ! grep -Eq '"candidates_generated": *[1-9]' "$TMP/explain.json"; then
        echo "smoke: FAIL — cold /explain counted no candidates"
        cat "$TMP/explain.json"
        exit 1
    fi
    echo "smoke: cold /explain reported the shardrpc plan with its cost breakdown"

    # The explain ran the real mine, so its result is cached: the same query
    # as a GET must explain as a cache hit with no executed plan.
    STATUS=$(curl -s -o "$TMP/explain2.json" -w '%{http_code}' \
        "$BASE/explain?dataset=exq&algo=UApriori&min_esup=0.005")
    check "GET /explain (hot)" 200 "$TMP/explain2.json" "$STATUS"
    for WANT in '"backend": "cache"' '"path": "cache-hit"'; do
        if ! grep -q "$WANT" "$TMP/explain2.json"; then
            echo "smoke: FAIL — hot /explain missing $WANT"
            cat "$TMP/explain2.json"
            exit 1
        fi
    done
    echo "smoke: hot /explain reported the cache-hit path"

    # And the explained query must not have perturbed the serving path: a
    # plain /mine of the same query is a cache hit on the explained result.
    STATUS=$(curl -s -D "$TMP/mine_hdrs.txt" -o "$TMP/mine.json" -w '%{http_code}' -X POST "$BASE/mine" \
        -H 'Content-Type: application/json' \
        -d '{"dataset":"exq","algorithm":"UApriori","min_esup":0.005}')
    check "/mine after explain" 200 "$TMP/mine.json" "$STATUS"
    if ! grep -qi '^x-umine-cache: hit' "$TMP/mine_hdrs.txt"; then
        echo "smoke: FAIL — /mine after explain was not a cache hit"
        cat "$TMP/mine_hdrs.txt"
        exit 1
    fi
    if ! grep -q '"itemset"' "$TMP/mine.json"; then
        echo "smoke: FAIL — /mine after explain returned an empty result set"
        exit 1
    fi
    echo "smoke: /mine after explain served the explained result from cache"

    # /metrics carries the mine latency histogram's 0.5 s bucket (the mine
    # target the burn rate is read against) and the build-info and uptime
    # gauges.
    STATUS=$(curl -s -o "$TMP/metrics.txt" -w '%{http_code}' "$BASE/metrics")
    check "/metrics" 200 "$TMP/metrics.txt" "$STATUS"
    for FAM in 'umine_mine_duration_seconds_bucket{le="0.5"}' umine_build_info umine_process_uptime_seconds; do
        if ! grep -q "^$FAM" "$TMP/metrics.txt"; then
            echo "smoke: FAIL — /metrics missing $FAM"
            exit 1
        fi
    done
    echo "smoke: mine latency bucket, build-info and uptime gauges exposed"

    echo "smoke: PASS (explain)"
    exit 0
fi

if [ "$MODE" = "subscribe" ]; then
    echo "smoke: building usub"
    go build -o "$TMP/usub" ./cmd/usub

    "$TMP/userve" -addr "$ADDR" >"$TMP/userve.log" 2>&1 &
    SERVER_PID=$!
    wait_healthz "$BASE" "$TMP/userve.log"

    STATUS=$(curl -s -o "$TMP/register.json" -w '%{http_code}' -X POST "$BASE/datasets" \
        -H 'Content-Type: application/json' \
        -d '{"name":"live","profile":"gazelle","scale":0.01,"seed":1}')
    check "register profile" 201 "$TMP/register.json" "$STATUS"

    # The real client: print the snapshot diff plus one refresh diff, then
    # exit. Started before the ingest so the refresh is observed live.
    "$TMP/usub" -addr "$ADDR" -dataset live -algo UApriori -min_esup 0.01 -n 2 \
        >"$TMP/events.jsonl" 2>"$TMP/usub.log" &
    USUB_PID=$!

    # Wait until the server has registered the subscriber before ingesting,
    # so the diff cannot race past a not-yet-attached stream.
    i=0
    until curl -s "$BASE/stats" | grep -Eq '"subscribers": *1(,|$)'; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "smoke: FAIL — subscriber never showed up in /stats"
            cat "$TMP/usub.log"
            exit 1
        fi
        sleep 0.2
    done
    echo "smoke: usub subscribed (visible in /stats)"

    STATUS=$(curl -s -o "$TMP/ingest.json" -w '%{http_code}' -X POST "$BASE/ingest" \
        -H 'Content-Type: application/json' \
        -d '{"dataset":"live","transactions":["0:0.9 1:0.5","2:1.0 5:0.25","0:0.4 2:0.8"]}')
    check "/ingest batch" 200 "$TMP/ingest.json" "$STATUS"

    wait "$USUB_PID"
    USUB_PID=""
    EVENTS=$(wc -l <"$TMP/events.jsonl")
    if [ "$EVENTS" != "2" ]; then
        echo "smoke: FAIL — usub printed $EVENTS events (want snapshot + refresh)"
        cat "$TMP/events.jsonl"
        exit 1
    fi
    if ! head -1 "$TMP/events.jsonl" | grep -q '"reason":"snapshot"'; then
        echo "smoke: FAIL — first event is not the snapshot diff"
        head -1 "$TMP/events.jsonl"
        exit 1
    fi
    echo "smoke: usub streamed the snapshot diff and the post-ingest refresh"

    # The refresh diff's result-set size must match a direct /mine of the
    # grown dataset — the continuous query tracks the transactional truth.
    STATUS=$(curl -s -o "$TMP/mine.json" -w '%{http_code}' -X POST "$BASE/mine" \
        -H 'Content-Type: application/json' \
        -d '{"dataset":"live","algorithm":"UApriori","min_esup":0.01}')
    check "/mine grown dataset" 200 "$TMP/mine.json" "$STATUS"
    TOTAL=$(tail -1 "$TMP/events.jsonl" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
    MINED=$(grep -c '"itemset"' "$TMP/mine.json")
    if [ -z "$TOTAL" ] || [ "$TOTAL" != "$MINED" ]; then
        echo "smoke: FAIL — refresh diff total=$TOTAL, direct /mine has $MINED itemsets"
        tail -1 "$TMP/events.jsonl"
        exit 1
    fi
    echo "smoke: refresh diff matches the direct /mine ($TOTAL itemsets)"

    STATUS=$(curl -s -o "$TMP/stats.json" -w '%{http_code}' "$BASE/stats")
    check "/stats" 200 "$TMP/stats.json" "$STATUS"
    if ! grep -Eq '"incremental_updates": *[1-9]' "$TMP/stats.json"; then
        echo "smoke: FAIL — /stats counted no incremental updates"
        cat "$TMP/stats.json"
        exit 1
    fi
    echo "smoke: /stats counted the ledger refreshes"

    echo "smoke: PASS (subscribe)"
    exit 0
fi

"$TMP/userve" -addr "$ADDR" >"$TMP/userve.log" 2>&1 &
SERVER_PID=$!

echo "smoke: waiting for $BASE/healthz"
wait_healthz "$BASE" "$TMP/userve.log"

STATUS=$(curl -s -o "$TMP/register.json" -w '%{http_code}' -X POST "$BASE/datasets" \
    -H 'Content-Type: application/json' \
    -d '{"name":"smoke","profile":"gazelle","scale":0.01,"seed":1}')
check "register profile" 201 "$TMP/register.json" "$STATUS"

STATUS=$(curl -s -o "$TMP/mine.json" -w '%{http_code}' -X POST "$BASE/mine" \
    -H 'Content-Type: application/json' \
    -d '{"dataset":"smoke","algorithm":"UApriori","min_esup":0.005}')
check "/mine" 200 "$TMP/mine.json" "$STATUS"
if ! grep -q '"itemset"' "$TMP/mine.json"; then
    echo "smoke: FAIL — /mine returned an empty result set"
    cat "$TMP/mine.json"
    exit 1
fi
echo "smoke: /mine returned a non-empty result set"

STATUS=$(curl -s -o "$TMP/ingest.json" -w '%{http_code}' -X POST "$BASE/ingest" \
    -H 'Content-Type: application/json' \
    -d '{"dataset":"smoke","transactions":["0:0.9 1:0.5","2:1.0"]}')
check "/ingest" 200 "$TMP/ingest.json" "$STATUS"
grep -q '"version": 1' "$TMP/ingest.json" || {
    echo "smoke: FAIL — ingest did not bump the dataset version"
    cat "$TMP/ingest.json"
    exit 1
}

STATUS=$(curl -s -o "$TMP/stats.json" -w '%{http_code}' "$BASE/stats")
check "/stats" 200 "$TMP/stats.json" "$STATUS"

# Windowed retention: a dataset registered with window_size 50 keeps only
# its last 50 transactions, so an ingest past the window reports n 50 and
# evicted true. The register body rejects unknown fields, so a retired
# option such as refresh_every fails with a 400 instead of being ignored.
STATUS=$(curl -s -o "$TMP/win.json" -w '%{http_code}' -X POST "$BASE/datasets" \
    -H 'Content-Type: application/json' \
    -d '{"name":"win","profile":"gazelle","scale":0.01,"seed":1,"window_size":50}')
check "register windowed profile" 201 "$TMP/win.json" "$STATUS"
STATUS=$(curl -s -o "$TMP/win_ingest.json" -w '%{http_code}' -X POST "$BASE/ingest" \
    -H 'Content-Type: application/json' \
    -d '{"dataset":"win","transactions":["0:0.9 1:0.5","2:1.0","1:0.7"]}')
check "/ingest past the window" 200 "$TMP/win_ingest.json" "$STATUS"
if ! grep -Eq '"n": *50(,|$)' "$TMP/win_ingest.json" || ! grep -Eq '"evicted": *true' "$TMP/win_ingest.json"; then
    echo "smoke: FAIL — windowed ingest did not keep 50 transactions and report an eviction"
    cat "$TMP/win_ingest.json"
    exit 1
fi
echo "smoke: windowed dataset kept its last 50 transactions"
STATUS=$(curl -s -o "$TMP/win_bad.json" -w '%{http_code}' -X POST "$BASE/datasets" \
    -H 'Content-Type: application/json' \
    -d '{"name":"win2","profile":"gazelle","scale":0.01,"seed":1,"window_size":50,"refresh_every":10}')
check "register with an unknown field" 400 "$TMP/win_bad.json" "$STATUS"
if ! grep -q 'refresh_every' "$TMP/win_bad.json"; then
    echo "smoke: FAIL — the 400 does not name the unknown field"
    cat "$TMP/win_bad.json"
    exit 1
fi

# Scatter-gather sharding: the same generated dataset registered unsharded
# and with 4 sub-shards must serve byte-identical /mine documents (the SON
# two-phase mine is bit-identical to single-shot), and /stats must count the
# partitions mined.
STATUS=$(curl -s -o "$TMP/sg1.json" -w '%{http_code}' -X POST "$BASE/datasets" \
    -H 'Content-Type: application/json' \
    -d '{"name":"sg1","profile":"gazelle","scale":0.01,"seed":7}')
check "register unsharded twin" 201 "$TMP/sg1.json" "$STATUS"
STATUS=$(curl -s -o "$TMP/sg4.json" -w '%{http_code}' -X POST "$BASE/datasets" \
    -H 'Content-Type: application/json' \
    -d '{"name":"sg4","profile":"gazelle","scale":0.01,"seed":7,"shards":4}')
check "register sharded twin" 201 "$TMP/sg4.json" "$STATUS"
STATUS=$(curl -s -o "$TMP/mine_sg1.json" -w '%{http_code}' -X POST "$BASE/mine" \
    -H 'Content-Type: application/json' \
    -d '{"dataset":"sg1","algorithm":"UApriori","min_esup":0.005}')
check "/mine unsharded twin" 200 "$TMP/mine_sg1.json" "$STATUS"
STATUS=$(curl -s -o "$TMP/mine_sg4.json" -w '%{http_code}' -X POST "$BASE/mine" \
    -H 'Content-Type: application/json' \
    -d '{"dataset":"sg4","algorithm":"UApriori","min_esup":0.005}')
check "/mine sharded twin" 200 "$TMP/mine_sg4.json" "$STATUS"
if ! cmp -s "$TMP/mine_sg1.json" "$TMP/mine_sg4.json"; then
    echo "smoke: FAIL — sharded /mine document differs from unsharded"
    diff "$TMP/mine_sg1.json" "$TMP/mine_sg4.json" | head -20
    exit 1
fi
echo "smoke: sharded /mine is byte-identical to unsharded"
STATUS=$(curl -s -o "$TMP/stats_sg.json" -w '%{http_code}' "$BASE/stats")
check "/stats after sharded mine" 200 "$TMP/stats_sg.json" "$STATUS"
if ! grep -Eq '"partitions_mined": *4(,|$)' "$TMP/stats_sg.json"; then
    echo "smoke: FAIL — /stats did not count 4 partitions mined"
    cat "$TMP/stats_sg.json"
    exit 1
fi
echo "smoke: /stats counted the scatter-gather partitions"

# Per-request timeout aborts a running mine. The slow dataset/algorithm pair
# (DCNB at min_sup 0.1 on an accident-like profile) needs ~10s uncancelled;
# a 250ms timeout_ms must therefore abort it in flight, return 503 promptly,
# bump the canceled counter, and leave the server healthy.
STATUS=$(curl -s -o "$TMP/slow.json" -w '%{http_code}' -X POST "$BASE/datasets" \
    -H 'Content-Type: application/json' \
    -d '{"name":"slow","profile":"accident","scale":0.01,"seed":1}')
check "register slow profile" 201 "$TMP/slow.json" "$STATUS"

T0=$(date +%s)
STATUS=$(curl -s --max-time 30 -o "$TMP/timeout.json" -w '%{http_code}' -X POST "$BASE/mine" \
    -H 'Content-Type: application/json' \
    -d '{"dataset":"slow","algorithm":"DCNB","min_sup":0.1,"pft":0.9,"timeout_ms":250,"no_cache":true}')
T1=$(date +%s)
check "/mine with timeout_ms=250" 503 "$TMP/timeout.json" "$STATUS"
if ! grep -q 'context deadline exceeded' "$TMP/timeout.json"; then
    echo "smoke: FAIL — timed-out /mine did not report a deadline error"
    cat "$TMP/timeout.json"
    exit 1
fi
if [ $((T1 - T0)) -gt 5 ]; then
    echo "smoke: FAIL — timed-out /mine took $((T1 - T0))s to return (cancellation not prompt)"
    exit 1
fi
echo "smoke: timed-out /mine aborted in-flight work promptly ($((T1 - T0))s)"

STATUS=$(curl -s -o "$TMP/healthz2.json" -w '%{http_code}' "$BASE/healthz")
check "/healthz after cancellation" 200 "$TMP/healthz2.json" "$STATUS"

STATUS=$(curl -s -o "$TMP/stats2.json" -w '%{http_code}' "$BASE/stats")
check "/stats after cancellation" 200 "$TMP/stats2.json" "$STATUS"
if ! grep -Eq '"canceled": *[1-9]' "$TMP/stats2.json"; then
    echo "smoke: FAIL — /stats canceled count did not increment"
    cat "$TMP/stats2.json"
    exit 1
fi
echo "smoke: /stats counted the canceled job"

echo "smoke: PASS"
