#!/bin/sh
# telemetry_smoke.sh — end-to-end check of the live telemetry path.
#
# Starts a real campaign (microtools -study) with -telemetry-addr on an
# ephemeral port, scrapes /metrics and /debug/campaigns while the run is
# in flight, asserts the expected metric families are exposed, then kills
# the run: the smoke verifies the wiring, not the measurement. Run from
# the repository root (make telemetry-smoke).
set -eu

GO="${GO:-go}"
workdir="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

"$GO" build -o "$workdir/microtools" ./cmd/microtools

# A 1MiB stride study keeps the simulator busy for several seconds —
# deterministic work, so the server is still up when we scrape.
"$workdir/microtools" -study specs/stride_study.xml -size 1048576 \
    -csv /dev/null -telemetry-addr 127.0.0.1:0 \
    >/dev/null 2>"$workdir/stderr" &
pid=$!

# The CLI announces the bound address on stderr once the listener is up.
url=""
i=0
while [ "$i" -lt 100 ]; do
    url="$(sed -n 's#^microtools: telemetry: \(http://[^/]*\)/$#\1#p' "$workdir/stderr")"
    [ -n "$url" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "telemetry-smoke: campaign exited before serving telemetry:" >&2
        cat "$workdir/stderr" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$url" ]; then
    echo "telemetry-smoke: no telemetry address announced within 10s" >&2
    exit 1
fi

curl -fsS "$url/metrics" >"$workdir/metrics"
for name in \
    microtools_campaign_launches \
    microtools_campaign_variant_seconds_count \
    microtools_launcher_rep_seconds_count \
    microtools_sim_insts_retired \
    microtools_sim_machines_built \
    microtools_sim_machines_reused; do
    if ! grep -q "^$name" "$workdir/metrics"; then
        echo "telemetry-smoke: /metrics is missing $name:" >&2
        cat "$workdir/metrics" >&2
        exit 1
    fi
done

curl -fsS "$url/debug/campaigns" >"$workdir/campaigns"
if ! grep -q 'stride_study' "$workdir/campaigns"; then
    echo "telemetry-smoke: /debug/campaigns does not list the running study:" >&2
    cat "$workdir/campaigns" >&2
    exit 1
fi

# pprof must be absent unless -pprof was given.
if curl -fsS "$url/debug/pprof/" >/dev/null 2>&1; then
    echo "telemetry-smoke: /debug/pprof/ served without -pprof" >&2
    exit 1
fi

echo "telemetry-smoke: ok ($url)"
