#!/usr/bin/env bash
# End-to-end smoke test for the xbard cluster layer (`make
# cluster-smoke`, CI's cluster-smoke job): build xbard, start a 3-node
# cluster on loopback ports, and check the sharded-cache contract:
#
#   1. every node answers the same request with identical measures,
#      all served by the key's ring owner (X-Xbar-Node), and the fleet
#      fills the lattice exactly once (fleet cache_misses == 1 in the
#      /v1/cluster rollup);
#   2. a /v1/grid whose class groups have different ring owners is
#      answered identically by every node, each group filled once
#      fleet-wide (cache_misses rises by the group count);
#   3. the owner drains within 3s of SIGTERM, and killing it degrades to
#      local compute on the survivors (HTTP 200, same blocking value,
#      failovers counted, one local fill per survivor) — never a
#      client-facing error;
#   4. the /v1/cluster rollup keeps answering with the dead member
#      marked unreachable; the final rollup is written to
#      $CLUSTER_ROLLUP (default cluster-rollup.json) for CI artifacts.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_PORT="${XBARD_CLUSTER_PORT:-8483}"
ROLLUP="${CLUSTER_ROLLUP:-cluster-rollup.json}"
WORK="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do
        kill -TERM "$pid" 2>/dev/null || true
    done
    for pid in "${PIDS[@]}"; do
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "cluster-smoke: building xbard"
go build -o "$WORK/xbard" ./cmd/xbard

IDS=(n1 n2 n3)
PEERS=""
for i in 0 1 2; do
    PEERS="${PEERS:+$PEERS,}${IDS[$i]}=http://127.0.0.1:$((BASE_PORT + i))"
done
for i in 0 1 2; do
    "$WORK/xbard" -addr "127.0.0.1:$((BASE_PORT + i))" -drain 10s \
        -node-id "${IDS[$i]}" -peers "$PEERS" \
        2>"$WORK/xbard-${IDS[$i]}.log" &
    PIDS+=($!)
done

url() { echo "http://127.0.0.1:$((BASE_PORT + $1))"; }

# Readiness gate on every node, bounded by a deadline.
DEADLINE=$(( $(date +%s) + 20 ))
for i in 0 1 2; do
    ok=
    while [ "$(date +%s)" -lt "$DEADLINE" ]; do
        if curl -fsS "$(url $i)/readyz" >/dev/null 2>&1; then
            ok=1
            break
        fi
        sleep 0.1
    done
    if [ -z "$ok" ]; then
        echo "cluster-smoke: ${IDS[$i]} not ready; log:" >&2
        cat "$WORK/xbard-${IDS[$i]}.log" >&2
        exit 1
    fi
done
echo "cluster-smoke: 3 nodes ready"

BODY='{"n1":16,"n2":16,"classes":[{"name":"smooth","a":1,"alpha":0.0024,"mu":1}]}'
served_by() { grep -i '^x-xbar-node:' "$1" | tr -d '\r' | awk '{print $2}'; }
# Cached flips false->true after the owner's first fill; strip it so
# the measure bytes can be compared directly.
norm() { sed 's/"cached":true/"cached":false/' "$1"; }

# The same request through every node: one owner serves all three,
# byte-identical measures, one fleet-wide fill.
for i in 0 1 2; do
    curl -fsS -D "$WORK/hdr$i.txt" -X POST -d "$BODY" \
        "$(url $i)/v1/blocking" >"$WORK/resp$i.json"
done
OWNER="$(served_by "$WORK/hdr0.txt")"
case " ${IDS[*]} " in
    *" $OWNER "*) ;;
    *) echo "cluster-smoke: X-Xbar-Node header '$OWNER' names no member" >&2; exit 1 ;;
esac
for i in 1 2; do
    SB="$(served_by "$WORK/hdr$i.txt")"
    if [ "$SB" != "$OWNER" ]; then
        echo "cluster-smoke: node ${IDS[$i]} request served by '$SB', want owner '$OWNER'" >&2
        exit 1
    fi
    if [ "$(norm "$WORK/resp$i.json")" != "$(norm "$WORK/resp0.json")" ]; then
        echo "cluster-smoke: node ${IDS[$i]} response differs from node ${IDS[0]}" >&2
        exit 1
    fi
done
echo "cluster-smoke: all 3 nodes served by owner $OWNER, responses identical"

curl -fsS "$(url 0)/v1/cluster" >"$WORK/rollup1.json"
grep -q '"cache_misses":1' "$WORK/rollup1.json" || {
    echo "cluster-smoke: fleet cache_misses != 1; rollup:" >&2
    cat "$WORK/rollup1.json" >&2
    exit 1
}
echo "cluster-smoke: fleet-wide cache_misses == 1"

# A multi-variant /v1/grid (one class group per beta variant, two sizes
# each) whose groups hash to several owners: every node serves its own
# groups and sends each other group to its owner, so the three replies
# match and the fleet fills each group once. Each group is remote to
# two of the three receiving nodes, so the fleet's forwards rise by
# 2 x NGROUPS; a grid whose groups one node owned would be forwarded
# whole and add only 2.
NGROUPS=6
POINTS=""
for b in 0.001 0.002 0.003 0.004 0.005 0.006; do
    POINTS="${POINTS:+$POINTS,}{\"classes\":[{\"class\":1,\"beta\":$b}]},{\"n1\":12,\"classes\":[{\"class\":1,\"beta\":$b}]}"
done
GRID='{"n1":16,"n2":16,"classes":[{"a":1,"alpha":4,"mu":1},{"a":2,"alpha":6,"beta":0.01,"mu":1}],"points":['"$POINTS"']}'
fleet_counter() { sed 's/.*"fleet"://' "$1" | grep -o "\"$2\":[0-9]*" | head -1 | cut -d: -f2; }
normgrid() { sed 's/"cached":[0-9]*/"cached":0/' "$1"; }
MISSES0="$(fleet_counter "$WORK/rollup1.json" cache_misses)"
FORWARDS0="$(fleet_counter "$WORK/rollup1.json" forwards)"
for i in 0 1 2; do
    curl -fsS -X POST -d "$GRID" "$(url $i)/v1/grid" >"$WORK/grid$i.json"
done
for i in 1 2; do
    if [ "$(normgrid "$WORK/grid$i.json")" != "$(normgrid "$WORK/grid0.json")" ]; then
        echo "cluster-smoke: node ${IDS[$i]} grid reply differs from node ${IDS[0]}" >&2
        exit 1
    fi
done
curl -fsS "$(url 0)/v1/cluster" >"$WORK/rollup2.json"
MISSES1="$(fleet_counter "$WORK/rollup2.json" cache_misses)"
FORWARDS1="$(fleet_counter "$WORK/rollup2.json" forwards)"
if [ $((MISSES1 - MISSES0)) -ne "$NGROUPS" ]; then
    echo "cluster-smoke: grid raised fleet cache_misses by $((MISSES1 - MISSES0)), want $NGROUPS; rollup:" >&2
    cat "$WORK/rollup2.json" >&2
    exit 1
fi
if [ $((FORWARDS1 - FORWARDS0)) -ne $((2 * NGROUPS)) ]; then
    echo "cluster-smoke: grid raised fleet forwards by $((FORWARDS1 - FORWARDS0)), want $((2 * NGROUPS)) (groups not split over owners?)" >&2
    exit 1
fi
echo "cluster-smoke: mixed-owner grid identical on all 3 nodes, $NGROUPS fleet-wide fills"

# Kill the owner: it must drain within 3s (a peer's parked, never-used
# pooled connection must not hold the drain open), and each survivor
# must fail over to local compute with the same answer, filling the
# orphaned key once.
for i in 0 1 2; do
    if [ "${IDS[$i]}" = "$OWNER" ]; then
        OWNER_IDX=$i
    fi
done
SURVIVOR_IDX=$(( (OWNER_IDX + 1) % 3 ))
SURVIVOR2_IDX=$(( (OWNER_IDX + 2) % 3 ))
solver_misses() {
    curl -fsS "$(url "$1")/metrics" | grep -o '"cache":{[^}]*}' | grep -o '"misses":[0-9]*' | cut -d: -f2
}
SMISSES0=$(( $(solver_misses $SURVIVOR_IDX) + $(solver_misses $SURVIVOR2_IDX) ))
T0="$(date +%s%N)"
kill -TERM "${PIDS[$OWNER_IDX]}"
wait "${PIDS[$OWNER_IDX]}" || {
    echo "cluster-smoke: owner exited non-zero; log:" >&2
    cat "$WORK/xbard-$OWNER.log" >&2
    exit 1
}
DRAIN_MS=$(( ($(date +%s%N) - T0) / 1000000 ))
if [ "$DRAIN_MS" -gt 3000 ]; then
    echo "cluster-smoke: owner took ${DRAIN_MS}ms from SIGTERM to exit, want <= 3000ms" >&2
    exit 1
fi
echo "cluster-smoke: owner $OWNER drained cleanly in ${DRAIN_MS}ms"

B0="$(grep -o '"blocking":[0-9.eE+-]*' "$WORK/resp0.json" | head -1)"
for i in $SURVIVOR_IDX $SURVIVOR2_IDX; do
    curl -fsS -D "$WORK/hdr-failover$i.txt" -X POST -d "$BODY" \
        "$(url $i)/v1/blocking" >"$WORK/resp-failover$i.json"
    SB="$(served_by "$WORK/hdr-failover$i.txt")"
    if [ "$SB" != "${IDS[$i]}" ]; then
        echo "cluster-smoke: failover served by '$SB', want local ${IDS[$i]}" >&2
        exit 1
    fi
    BF="$(grep -o '"blocking":[0-9.eE+-]*' "$WORK/resp-failover$i.json" | head -1)"
    if [ "$B0" != "$BF" ]; then
        echo "cluster-smoke: ${IDS[$i]} failover blocking $BF differs from owner's $B0" >&2
        exit 1
    fi
    curl -fsS "$(url $i)/metrics" >"$WORK/metrics-failover$i.json"
    grep -q '"failovers":1' "$WORK/metrics-failover$i.json" || {
        echo "cluster-smoke: ${IDS[$i]} counted no failover; metrics:" >&2
        cat "$WORK/metrics-failover$i.json" >&2
        exit 1
    }
done
SMISSES1=$(( $(solver_misses $SURVIVOR_IDX) + $(solver_misses $SURVIVOR2_IDX) ))
if [ $((SMISSES1 - SMISSES0)) -ne 2 ]; then
    echo "cluster-smoke: survivors' cache_misses rose by $((SMISSES1 - SMISSES0)), want 2 (one local fill each)" >&2
    exit 1
fi
echo "cluster-smoke: failover to local compute ok on both survivors (bit-identical blocking, one fill each)"

# The rollup survives the dead member and is kept as the CI artifact.
curl -fsS "$(url $SURVIVOR_IDX)/v1/cluster" >"$ROLLUP"
grep -q '"reachable":2' "$ROLLUP" || {
    echo "cluster-smoke: rollup does not report 2 reachable members:" >&2
    cat "$ROLLUP" >&2
    exit 1
}
echo "cluster-smoke: rollup written to $ROLLUP"

# Clean drain for the two survivors.
for i in 0 1 2; do
    [ "$i" -eq "$OWNER_IDX" ] && continue
    kill -TERM "${PIDS[$i]}"
    wait "${PIDS[$i]}" || {
        echo "cluster-smoke: ${IDS[$i]} exited non-zero; log:" >&2
        cat "$WORK/xbard-${IDS[$i]}.log" >&2
        exit 1
    }
    grep -q "drained cleanly" "$WORK/xbard-${IDS[$i]}.log"
done
PIDS=()
echo "cluster-smoke: clean drain on survivors, all checks passed"
