#!/usr/bin/env bash
# End-to-end serving check (ISSUE 5 satellite): boots `crowdfusion_cli
# serve` (front-end + loopback crowd platform), curls golden requests at
# /v1/fusion:run and the session endpoints, diffs normalized responses
# against the checked-in goldens, and asserts a clean SIGTERM shutdown
# (exit 0). Run UPDATE_GOLDENS=1 to regenerate the goldens after an
# intentional serving-behavior change.
#
# usage: ci/serve_e2e.sh <path-to-crowdfusion_cli> [workdir]
set -euo pipefail

CLI="${1:?usage: serve_e2e.sh <crowdfusion_cli> [workdir]}"
WORK="${2:-$(mktemp -d)}"
HERE="$(cd "$(dirname "$0")" && pwd)"
FIXTURES="$HERE/serve_e2e"
GOLDEN="$FIXTURES/golden"

mkdir -p "$WORK" "$GOLDEN"

# Ephemeral ports everywhere (the repo's parallel-socket-test rule):
# `serve` prints the bound ports, which we scrape from its log.
"$CLI" serve --port 0 --crowd-port 0 >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
cleanup() { kill -9 "$SERVE_PID" 2>/dev/null || true; }
trap cleanup EXIT

echo "waiting for serve to report its ports ..."
for _ in $(seq 1 100); do
  if grep -q "^serving on " "$WORK/serve.log" 2>/dev/null; then break; fi
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "FAIL: server died during startup"; cat "$WORK/serve.log"; exit 1
  fi
  sleep 0.1
done
PORT=$(sed -n 's#^serving on http://127.0.0.1:\([0-9]*\).*#\1#p' \
  "$WORK/serve.log")
CROWD_PORT=$(sed -n 's#^crowd platform on http://127.0.0.1:\([0-9]*\).*#\1#p' \
  "$WORK/serve.log")
test -n "$PORT" && test -n "$CROWD_PORT"
BASE="http://127.0.0.1:$PORT"
echo "front-end on $PORT, crowd platform on $CROWD_PORT"
curl -fsS "$BASE/healthz" | grep -q '"status":"ok"'

# The http-provider request names the crowd endpoint; point the fixture's
# template at the actual ephemeral port (the response golden is
# endpoint-free, so this keeps the diff exact).
python3 - "$FIXTURES/run_crowd_http.json" "$CROWD_PORT" \
  >"$WORK/run_crowd_http.request.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["provider"]["endpoint"] = "127.0.0.1:" + sys.argv[2]
json.dump(doc, sys.stdout, indent=2)
PYEOF

check_golden() {
  local name="$1"
  python3 "$FIXTURES/normalize_response.py" \
    <"$WORK/$name.out" >"$WORK/$name.norm"
  if [ "${UPDATE_GOLDENS:-0}" = "1" ]; then
    cp "$WORK/$name.norm" "$GOLDEN/$name.golden.json"
    echo "updated golden: $name"
  else
    diff -u "$GOLDEN/$name.golden.json" "$WORK/$name.norm" \
      || { echo "FAIL: $name diverged from its golden"; exit 1; }
    echo "golden ok: $name"
  fi
}

# --- one-shot fusion:run, scripted (pure in-process determinism) ---------
curl -fsS -X POST --data @"$FIXTURES/run_scripted.json" \
  "$BASE/v1/fusion:run" >"$WORK/run_scripted.out"
check_golden run_scripted

# --- one-shot fusion:run through the remote crowd (provider "http"):
# client -> HTTP -> service -> HTTP -> crowd, all over real sockets ------
curl -fsS -X POST --data @"$WORK/run_crowd_http.request.json" \
  "$BASE/v1/fusion:run" >"$WORK/run_crowd_http.out"
check_golden run_crowd_http

# --- the same request in engine mode: the paper's per-book loop over the
# remote crowd, each round one single-attempt ticket --------------------
python3 - "$WORK/run_crowd_http.request.json" \
  >"$WORK/run_crowd_http_engine.request.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["mode"] = "engine"
doc["label"] = "e2e-http-crowd-engine"
doc.pop("pipeline", None)
json.dump(doc, sys.stdout, indent=2)
PYEOF
curl -fsS -X POST --data @"$WORK/run_crowd_http_engine.request.json" \
  "$BASE/v1/fusion:run" >"$WORK/run_crowd_http_engine.out"
check_golden run_crowd_http_engine

# --- incremental session lifecycle --------------------------------------
SID=$(curl -fsS -X POST --data @"$FIXTURES/run_scripted.json" \
  "$BASE/v1/sessions" |
  python3 -c 'import json,sys; print(json.load(sys.stdin)["session_id"])')
echo "created session $SID"
test "$SID" = "s-1"  # counter-based ids: a fresh server always starts here

for _ in $(seq 1 64); do
  DONE=$(curl -fsS -X POST -d '{}' "$BASE/v1/sessions/$SID/step" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["done"])')
  [ "$DONE" = "True" ] && break
done
test "$DONE" = "True"

curl -fsS "$BASE/v1/sessions/$SID" |
  python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["done"]'
curl -fsS "$BASE/v1/sessions/$SID/result" >"$WORK/session_result.out"
check_golden session_result

# The incremental run must reproduce the one-shot response exactly.
if [ "${UPDATE_GOLDENS:-0}" != "1" ]; then
  diff -u "$WORK/run_scripted.norm" "$WORK/session_result.norm" \
    || { echo "FAIL: session result != one-shot run"; exit 1; }
fi

curl -fsS -X DELETE "$BASE/v1/sessions/$SID" >/dev/null
STATUS=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/sessions/$SID")
test "$STATUS" = "404"

# --- metrics gauges ------------------------------------------------------
curl -fsS "$BASE/metricsz" | python3 -c '
import json, sys
m = json.load(sys.stdin)
assert m["requests_served"] >= 10, m
assert m["requests_rejected"] >= 1, m      # the 404 probe above (a 4xx)
assert m["requests_failed"] == 0, m        # 5xx only: nothing broke
assert m["sessions_created"] == 1, m
assert m["sessions_active"] == 0, m
assert "p50_handler_ms" in m and "p95_handler_ms" in m, m
assert m["uptime_seconds"] > 0, m          # monotonic since Start()
assert m["connections_accepted"] >= 1, m   # every curl above connected
print("metricsz ok:", json.dumps(m))
'

# --- an engine-mode session over the remote crowd, driven by /step: each
# step parks on the crowd, and the result is the one-shot engine run's ---
ESID=$(curl -fsS -X POST --data @"$WORK/run_crowd_http_engine.request.json" \
  "$BASE/v1/sessions" |
  python3 -c 'import json,sys; print(json.load(sys.stdin)["session_id"])')
echo "created engine session $ESID"
for _ in $(seq 1 64); do
  DONE=$(curl -fsS -X POST -d '{}' "$BASE/v1/sessions/$ESID/step" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["done"])')
  [ "$DONE" = "True" ] && break
done
test "$DONE" = "True"
curl -fsS "$BASE/v1/sessions/$ESID/result" |
  python3 "$FIXTURES/normalize_response.py" >"$WORK/engine_session.norm"
diff -u "$WORK/run_crowd_http_engine.norm" "$WORK/engine_session.norm" \
  || { echo "FAIL: engine session result != one-shot engine run"; exit 1; }
echo "engine session ok: stepped result == one-shot run"
curl -fsS -X DELETE "$BASE/v1/sessions/$ESID" >/dev/null

# --- clean SIGTERM shutdown ----------------------------------------------
kill -TERM "$SERVE_PID"
RC=0
wait "$SERVE_PID" || RC=$?
trap - EXIT
if [ "$RC" != "0" ]; then
  echo "FAIL: serve exited $RC on SIGTERM"; cat "$WORK/serve.log"; exit 1
fi
grep -q "shut down cleanly" "$WORK/serve.log"
echo "PASS: single-backend serve (clean shutdown, goldens matched)"

# ========================================================================
# PART 2 (ISSUE 6): router topology over real processes —
#   router -> 2 backends (`serve`) -> 2 standalone crowd platforms
# with two kill tests: a crowd platform dying mid-run (the http_pool
# provider must fail the batches over), and a backend dying (only its own
# sessions may be lost).
# ========================================================================
echo "=== router topology: router -> 2 backends -> 2 crowd platforms ==="

"$CLI" crowd --port 0 >"$WORK/crowd_a.log" 2>&1 &
CROWD_A_PID=$!
"$CLI" crowd --port 0 >"$WORK/crowd_b.log" 2>&1 &
CROWD_B_PID=$!
"$CLI" serve --port 0 --crowd-port 0 >"$WORK/backend_a.log" 2>&1 &
BACKEND_A_PID=$!
"$CLI" serve --port 0 --crowd-port 0 >"$WORK/backend_b.log" 2>&1 &
BACKEND_B_PID=$!
ROUTE_PID=""
cleanup_fleet() {
  kill -9 "$CROWD_A_PID" "$CROWD_B_PID" "$BACKEND_A_PID" \
    "$BACKEND_B_PID" $ROUTE_PID 2>/dev/null || true
}
trap cleanup_fleet EXIT

wait_for_line() { # <log> <pattern> <pid>
  for _ in $(seq 1 100); do
    if grep -q "$2" "$1" 2>/dev/null; then return 0; fi
    if ! kill -0 "$3" 2>/dev/null; then
      echo "FAIL: process behind $1 died during startup"; cat "$1"; exit 1
    fi
    sleep 0.1
  done
  echo "FAIL: timed out waiting for '$2' in $1"; cat "$1"; exit 1
}

wait_for_line "$WORK/crowd_a.log" "^crowd platform on " "$CROWD_A_PID"
wait_for_line "$WORK/crowd_b.log" "^crowd platform on " "$CROWD_B_PID"
wait_for_line "$WORK/backend_a.log" "^serving on " "$BACKEND_A_PID"
wait_for_line "$WORK/backend_b.log" "^serving on " "$BACKEND_B_PID"
CROWD_A=$(sed -n 's#^crowd platform on http://\([0-9.:]*\)$#\1#p' \
  "$WORK/crowd_a.log")
CROWD_B=$(sed -n 's#^crowd platform on http://\([0-9.:]*\)$#\1#p' \
  "$WORK/crowd_b.log")
BACKEND_A_PORT=$(sed -n 's#^serving on http://127.0.0.1:\([0-9]*\).*#\1#p' \
  "$WORK/backend_a.log")
BACKEND_B_PORT=$(sed -n 's#^serving on http://127.0.0.1:\([0-9]*\).*#\1#p' \
  "$WORK/backend_b.log")
test -n "$CROWD_A" && test -n "$CROWD_B"
test -n "$BACKEND_A_PORT" && test -n "$BACKEND_B_PORT"

"$CLI" route --port 0 \
  --backends "127.0.0.1:$BACKEND_A_PORT,127.0.0.1:$BACKEND_B_PORT" \
  >"$WORK/route.log" 2>&1 &
ROUTE_PID=$!
wait_for_line "$WORK/route.log" "^routing on " "$ROUTE_PID"
ROUTE_PORT=$(sed -n 's#^routing on http://127.0.0.1:\([0-9]*\).*#\1#p' \
  "$WORK/route.log")
test -n "$ROUTE_PORT"
RBASE="http://127.0.0.1:$ROUTE_PORT"
echo "router on $ROUTE_PORT -> backends $BACKEND_A_PORT,$BACKEND_B_PORT;" \
  "crowd platforms $CROWD_A,$CROWD_B"
curl -fsS "$RBASE/healthz" | python3 -c '
import json, sys
h = json.load(sys.stdin)
assert h["backends"] == 2 and h["healthy_backends"] == 2, h
'

# --- kill a crowd platform mid-run: http_pool fails the batches over ----
python3 - "$FIXTURES/run_crowd_http.json" "$CROWD_A" "$CROWD_B" \
  >"$WORK/run_pool.request.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["label"] = "e2e-pool-failover"
doc["provider"]["kind"] = "http_pool"
doc["provider"].pop("endpoint", None)
doc["provider"]["endpoints"] = [sys.argv[2], sys.argv[3]]
json.dump(doc, sys.stdout, indent=2)
PYEOF

POOL_SID=$(curl -fsS -X POST --data @"$WORK/run_pool.request.json" \
  "$RBASE/v1/sessions" |
  python3 -c 'import json,sys; print(json.load(sys.stdin)["session_id"])')
echo "pool session $POOL_SID (keyed id minted by the router)"
case "$POOL_SID" in *@*) ;; *)
  echo "FAIL: router did not key the session id"; exit 1;; esac

# One step with both platforms alive, then pull the rug out.
curl -fsS -X POST -d '{}' "$RBASE/v1/sessions/$POOL_SID/step" >/dev/null
kill -9 "$CROWD_A_PID"
echo "killed crowd platform $CROWD_A mid-run"

for _ in $(seq 1 64); do
  DONE=$(curl -fsS -X POST -d '{}' "$RBASE/v1/sessions/$POOL_SID/step" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["done"])')
  [ "$DONE" = "True" ] && break
done
test "$DONE" = "True"
curl -fsS "$RBASE/v1/sessions/$POOL_SID/result" | python3 -c '
import json, sys
r = json.load(sys.stdin)
assert r["dead_instances"] == 0, r            # every book finished
assert r["stats"]["tickets_resubmitted"] > 0, r["stats"]  # failover fired
print("pool failover ok: tickets_resubmitted =",
      r["stats"]["tickets_resubmitted"])
'
curl -fsS -X DELETE "$RBASE/v1/sessions/$POOL_SID" >/dev/null

# --- kill a backend: only its own sessions go dark ----------------------
SIDS=""
for _ in $(seq 1 12); do
  SID=$(curl -fsS -X POST --data @"$FIXTURES/run_scripted.json" \
    "$RBASE/v1/sessions" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["session_id"])')
  SIDS="$SIDS $SID"
done
A_ACTIVE=$(curl -fsS "http://127.0.0.1:$BACKEND_A_PORT/metricsz" |
  python3 -c 'import json,sys; print(json.load(sys.stdin)["sessions_active"])')
B_ACTIVE=$(curl -fsS "http://127.0.0.1:$BACKEND_B_PORT/metricsz" |
  python3 -c 'import json,sys; print(json.load(sys.stdin)["sessions_active"])')
echo "sessions spread: backend A holds $A_ACTIVE, backend B holds $B_ACTIVE"
test "$A_ACTIVE" -ge 1 && test "$B_ACTIVE" -ge 1
test $((A_ACTIVE + B_ACTIVE)) -eq 12

kill -9 "$BACKEND_A_PID"
echo "killed backend A ($BACKEND_A_PORT)"

ALIVE=0; LOST=0
for SID in $SIDS; do
  CODE=$(curl -s -o /dev/null -w '%{http_code}' "$RBASE/v1/sessions/$SID")
  if [ "$CODE" = "200" ]; then ALIVE=$((ALIVE + 1));
  elif [ "$CODE" = "503" ]; then LOST=$((LOST + 1));
  else echo "FAIL: unexpected status $CODE for $SID"; exit 1; fi
done
echo "after the kill: $ALIVE sessions alive, $LOST lost"
test "$ALIVE" -eq "$B_ACTIVE"   # the survivor lost nothing
test "$LOST" -eq "$A_ACTIVE"    # the corpse took only its own

# Stateless traffic routes around the corpse, and new sessions still land.
curl -fsS -X POST --data @"$FIXTURES/run_scripted.json" \
  "$RBASE/v1/fusion:run" >/dev/null
FRESH=$(curl -fsS -X POST --data @"$FIXTURES/run_scripted.json" \
  "$RBASE/v1/sessions" |
  python3 -c 'import json,sys; print(json.load(sys.stdin)["session_id"])')
case "$FRESH" in *@*) ;; *)
  echo "FAIL: post-kill session create not keyed"; exit 1;; esac
curl -fsS "$RBASE/metricsz" | python3 -c '
import json, sys
m = json.load(sys.stdin)
assert m["proxy_failures"] >= 1, m   # the dead backend was noticed
assert m["sessions_created"] >= 14, m
'

# --- clean SIGTERM shutdown of the router -------------------------------
kill -TERM "$ROUTE_PID"
RC=0
wait "$ROUTE_PID" || RC=$?
if [ "$RC" != "0" ]; then
  echo "FAIL: route exited $RC on SIGTERM"; cat "$WORK/route.log"; exit 1
fi
grep -q "shut down cleanly" "$WORK/route.log"
ROUTE_PID=""
kill -TERM "$BACKEND_B_PID" "$CROWD_B_PID" 2>/dev/null || true
wait "$BACKEND_B_PID" "$CROWD_B_PID" 2>/dev/null || true
trap - EXIT
cleanup_fleet
echo "PASS: serve-e2e (goldens, pool failover, backend kill, clean shutdown)"
