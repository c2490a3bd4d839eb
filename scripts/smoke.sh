#!/usr/bin/env bash
# End-to-end smoke test for the xbard daemon (`make smoke`, CI's smoke
# job): build it, start it, wait for readiness on /readyz (bounded by
# a deadline), hit /healthz, check /v1/blocking against the committed
# results/figure1.csv value to 1e-9, run two scenario specs through
# /v1/scenario (plus its 422 contract), scrape /metrics, post one
# /v1/revenue, /v1/admission, /v1/sweep and /v1/grid request with a
# structural check each, then SIGTERM and require a clean drain with
# exit code 0.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${XBARD_PORT:-8482}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "smoke: building xbard"
go build -o "$WORK/xbard" ./cmd/xbard

"$WORK/xbard" -addr "127.0.0.1:$PORT" -drain 10s 2>"$WORK/xbard.log" &
PID=$!

# Readiness gate: poll /readyz (not /healthz — a live node may not be
# ready yet) under a hard deadline.
READY_DEADLINE_S="${XBARD_READY_DEADLINE_S:-15}"
DEADLINE=$(( $(date +%s) + READY_DEADLINE_S ))
ok=
while [ "$(date +%s)" -lt "$DEADLINE" ]; do
    if curl -fsS "$BASE/readyz" >"$WORK/readyz.json" 2>/dev/null; then
        ok=1
        break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "smoke: xbard exited before serving; log:" >&2
        cat "$WORK/xbard.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$ok" ]; then
    echo "smoke: xbard not ready on /readyz within ${READY_DEADLINE_S}s; log:" >&2
    cat "$WORK/xbard.log" >&2
    exit 1
fi
grep -q '"status":"ready"' "$WORK/readyz.json"
echo "smoke: /readyz ready"

curl -fsS "$BASE/healthz" >"$WORK/healthz.json"
grep -q '"status":"ok"' "$WORK/healthz.json"
echo "smoke: /healthz ok"

# Figure 1 operating point at N=16: single Bernoulli class, a=1,
# alpha~=.0024, mu=1. The served blocking must match the committed
# results/figure1.csv beta~=0 column to 1e-9.
GOLDEN="$(awk -F, '$1 == 16 { print $2; exit }' results/figure1.csv)"
curl -fsS -X POST -d '{"n1":16,"n2":16,"classes":[{"name":"smooth","a":1,"alpha":0.0024,"mu":1}]}' \
    "$BASE/v1/blocking" >"$WORK/blocking.json"
GOT="$(grep -o '"blocking":[0-9.eE+-]*' "$WORK/blocking.json" | head -1 | cut -d: -f2)"
awk -v got="$GOT" -v want="$GOLDEN" 'BEGIN {
    d = got - want; if (d < 0) d = -d
    printf "smoke: /v1/blocking = %s, results/figure1.csv = %s, |diff| = %.3g\n", got, want, d
    exit !(d <= 1e-9)
}'

# The asymptotic dispatch tier: a 4096-port switch no lattice fill
# could serve, answered from the saddle-point expansion. The answer
# must carry the tier and a positive error bound, and arrive fast —
# the tier is O(R), so 100ms wall clock (including curl) is generous.
START_NS="$(date +%s%N)"
curl -fsS -X POST -d '{"n1":4096,"n2":4096,"dispatch":"auto","classes":[{"name":"bulk","a":1,"alpha":1.12,"mu":1}]}' \
    "$BASE/v1/blocking" >"$WORK/asym.json"
ELAPSED_MS=$(( ($(date +%s%N) - START_NS) / 1000000 ))
grep -q '"tier":"asymptotic"' "$WORK/asym.json"
grep -qo '"error_bound":[0-9.eE+-]*' "$WORK/asym.json"
if [ "$ELAPSED_MS" -ge 100 ]; then
    echo "smoke: asymptotic /v1/blocking took ${ELAPSED_MS}ms, want < 100ms" >&2
    exit 1
fi
echo "smoke: asymptotic dispatch at 4096 ok (${ELAPSED_MS}ms)"

# The unified scenario endpoint: one analytic slotted spec and one
# analytic WDM spec through POST /v1/scenario (docs/SCENARIOS.md). The
# slotted repeat must come back from the result cache.
curl -fsS -X POST -d '{"discipline":"slotted","topology":{"n1":16,"n2":16},"params":{"load":0.8}}' \
    "$BASE/v1/scenario" >"$WORK/scenario1.json"
grep -q '"discipline":"slotted"' "$WORK/scenario1.json"
grep -q '"name":"throughput"' "$WORK/scenario1.json"
grep -q '"cached":false' "$WORK/scenario1.json"
curl -fsS -X POST -d '{"discipline":"slotted","topology":{"n1":16,"n2":16},"params":{"load":0.8}}' \
    "$BASE/v1/scenario" >"$WORK/scenario2.json"
grep -q '"cached":true' "$WORK/scenario2.json"
curl -fsS -X POST -d '{"discipline":"wdm","topology":{"l":3,"w":8},"params":{"rate":4,"cross_rate":1,"mu":1}}' \
    "$BASE/v1/scenario" >"$WORK/scenario3.json"
grep -q '"name":"conversion_gain"' "$WORK/scenario3.json"
# The error contract: an unknown discipline is a 422, never a 200.
CODE="$(curl -sS -o "$WORK/scenario4.json" -w '%{http_code}' -X POST -d '{"discipline":"quantum"}' "$BASE/v1/scenario")"
if [ "$CODE" != "422" ]; then
    echo "smoke: unknown discipline returned HTTP $CODE, want 422" >&2
    exit 1
fi
echo "smoke: /v1/scenario ok"

curl -fsS "$BASE/metrics" >"$WORK/metrics.json"
grep -q '"misses":1' "$WORK/metrics.json"
grep -q '"requests":2' "$WORK/metrics.json"
grep -q '"scenario_cache":{"hits":1,"misses":2' "$WORK/metrics.json"
echo "smoke: /metrics ok"

# The remaining POST endpoints, one request each over real TCP: HTTP
# 200 plus one structural fact of the reply.
post() { # path body out
    local code
    code="$(curl -sS -o "$3" -w '%{http_code}' -X POST -d "$2" "$BASE$1")"
    if [ "$code" != "200" ]; then
        echo "smoke: $1 returned HTTP $code, want 200: $(cat "$3")" >&2
        exit 1
    fi
}
# count key file: occurrences of a JSON key in a reply.
count() { grep -o "$1" "$2" | wc -l | tr -d ' '; }
TWO='"n1":16,"n2":16,"classes":[{"name":"smooth","a":1,"alpha":0.0024,"mu":1},{"name":"wide","a":2,"alpha":0.0012,"beta":0.0004,"mu":1}]'
post /v1/revenue "{$TWO,\"weights\":[1,0.2]}" "$WORK/revenue.json"
if [ "$(count '"shadow_cost"' "$WORK/revenue.json")" != 2 ]; then
    echo "smoke: /v1/revenue reply lacks one row per class: $(cat "$WORK/revenue.json")" >&2
    exit 1
fi
post /v1/admission "{$TWO,\"class\":1,\"weights\":[1,0.2]}" "$WORK/admission.json"
grep -q '"accept":' "$WORK/admission.json"
post /v1/sweep "{$TWO,\"points\":[{\"n1\":4,\"n2\":4},{\"n1\":8,\"n2\":12},{\"n1\":16,\"n2\":16}]}" "$WORK/sweep.json"
if [ "$(count '"blocking"' "$WORK/sweep.json")" != 3 ]; then
    echo "smoke: /v1/sweep reply lacks one result per point: $(cat "$WORK/sweep.json")" >&2
    exit 1
fi
# Per-route units: the second point only resizes the base model and
# shares its fill, the third moves a load, so the batch reduces to two
# lattice fills.
ROUTE='"n1":16,"n2":16,"units":"route","classes":[{"a":1,"alpha":0.0024,"mu":1},{"a":2,"alpha":0.0012,"beta":0.0004,"mu":1}]'
post /v1/grid "{$ROUTE,\"points\":[{},{\"n1\":8,\"n2\":8},{\"classes\":[{\"class\":0,\"alpha\":0.0048}]}]}" "$WORK/grid.json"
grep -q '"models":2' "$WORK/grid.json"
echo "smoke: /v1/revenue, /v1/admission, /v1/sweep, /v1/grid ok"

kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "smoke: xbard exited $rc after SIGTERM; log:" >&2
    cat "$WORK/xbard.log" >&2
    exit 1
fi
grep -q "drained cleanly" "$WORK/xbard.log"
echo "smoke: clean drain, exit 0"
