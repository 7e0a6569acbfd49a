#!/usr/bin/env bash
# Loopback smoke test for the choco-serve binary, two phases:
#   1. boot the real server process on an ephemeral port, run the load
#      generator against it over TCP (evaluator protocol: key upload,
#      sequential and pipelined evaluate rounds), take a stats snapshot,
#      and drain gracefully via stdin;
#   2. restart the server and re-run the same (tenant, session) ids — the
#      restarted server must serve them like anyone else: zero failures
#      and a drain summary billing exactly phase 1's upload/download
#      bytes, none of it as retransmit.
# ci.sh wraps this in a hard `timeout` so a hung accept loop or a
# non-converging drain fails CI instead of wedging it.
set -euo pipefail
cd "$(dirname "$0")/.."

SERVE=target/release/choco-serve
BENCH=target/release/choco-serve-bench
[[ -x $SERVE && -x $BENCH ]] || cargo build --release -q -p choco-serve

workdir=$(mktemp -d)
serve_pid=""

cleanup() {
    exec 3>&- 2>/dev/null || true
    [[ -n $serve_pid ]] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

# Boots choco-serve reading stdin from a fifo held open on fd 3; sets
# $serve_pid and $addr. $1 names the phase (log + fifo suffix).
boot_server() {
    local phase=$1
    log="$workdir/serve-$phase.log"
    local fifo="$workdir/stdin-$phase.fifo"
    mkfifo "$fifo"
    # Port 0 = kernel-assigned ephemeral port; the server prints the real one.
    "$SERVE" --addr 127.0.0.1:0 --max-sessions 8 \
        --tenant 1=serve-bench-tenant-1 --tenant 2=serve-bench-tenant-2 \
        <"$fifo" >"$log" 2>&1 &
    serve_pid=$!
    exec 3>"$fifo" # hold the write end open so the server doesn't see EOF

    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^choco-serve listening on \([0-9.:]*\).*/\1/p' "$log")
        [[ -n $addr ]] && break
        kill -0 "$serve_pid" 2>/dev/null || { cat "$log"; echo "serve_smoke: server died at startup ($phase)"; exit 1; }
        sleep 0.1
    done
    [[ -n $addr ]] || { cat "$log"; echo "serve_smoke: server never reported its address ($phase)"; exit 1; }
    echo "serve_smoke: server up on $addr (pid $serve_pid, phase $phase)"
}

drain_server() {
    echo stats >&3
    echo drain >&3
    exec 3>&-
    wait "$serve_pid"
    serve_pid=""
    grep -q "choco-serve: drained" "$log" || { cat "$log"; echo "serve_smoke: no clean drain marker"; exit 1; }
}

# What the drained server billed: the upload, download and retransmit byte
# fields out of the drain summary (the last stats line in the log).
billed_bytes() {
    grep '^{"accepted":' "$log" | tail -n 1 \
        | grep -o '"upload_bytes":[0-9]*,"download_bytes":[0-9]*,"retransmit_bytes":[0-9]*'
}

# Phase 1: fresh server, clean run, drain.
boot_server first
"$BENCH" --addr "$addr" --smoke --json "$workdir/bench1.json"
drain_server
grep -q '"failed_clients": 0' "$workdir/bench1.json" || { cat "$workdir/bench1.json"; echo "serve_smoke: phase-1 bench reported failures"; exit 1; }
# The stdin `stats` command and the drain summary each print one
# machine-readable JSON line covering serve + eval + isolation counters.
[[ $(grep -c '^{"accepted":.*"isolation":{"quarantined":' "$log") -eq 2 ]] \
    || { cat "$log"; echo "serve_smoke: expected a stats line and a drain summary line"; exit 1; }
billed1=$(billed_bytes)

# Phase 2: restart; the clients come back under identical (tenant,
# session) ids with sequence numbers starting over, and every request is
# billed as the fresh upload it is.
boot_server second
"$BENCH" --addr "$addr" --smoke --json "$workdir/bench2.json"
drain_server
grep -q '"failed_clients": 0' "$workdir/bench2.json" || { cat "$workdir/bench2.json"; echo "serve_smoke: phase-2 bench reported failures"; exit 1; }
billed2=$(billed_bytes)
[[ $billed1 == *'"retransmit_bytes":0' && $billed1 == "$billed2" ]] \
    || { cat "$log"; echo "serve_smoke: restarted server billed '$billed2', first run '$billed1' (want equal, no retransmit)"; exit 1; }

echo "serve_smoke: OK (clean run + drain + restart bills identically)"
