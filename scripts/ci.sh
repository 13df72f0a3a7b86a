#!/bin/sh
# CI entry point: full build, the complete test suite (which also pins
# the chaos suite, the loss sweep, the observed run's output, the
# doctor's diagnosis of a stalled run and perfbench's simulated outcome),
# a long run of the SHA-256 kernel, Field61.of_bytes and the decimal
# encoder against their references, smoke runs of the other experiment
# surfaces (trace export, reconfiguration, sweep, run report), the
# future-work, broker-lanes and fleet scale-out runs compared with their
# pinned stdout, the full-scale headline point, plus the bench baseline
# gate.  Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @all =="
dune build @all

echo "== dune runtest =="
# Besides the test suites this diffs the deterministic outputs pinned in
# test/pins: every chaos scenario (each fails the run on a violated
# invariant), the self-checking reliable-UDP loss sweep, the observed
# run's stdout and --no-wall report, the doctor's diagnosis of an
# unhealed partition, and the simulated outcome of every perfbench
# workload at full size (each must also pass the benchmark's own delivery
# check).
dune runtest

echo "== SHA-256: the block kernel against the OCaml reference =="
# Under runtest each property runs a few hundred random inputs;
# QCHECK_LONG multiplies that here.  test_crypto's "kernel agrees with
# the reference" (one-shot digest, digest_list, the Merkle-tagged digest
# and the OCaml stream against reference_digest) runs 20,100 inputs;
# "of_bytes matches the byte-wise fold" (Field61's word-wise fold) and
# the two "of_int = string_of_int" properties (the decimal encoder of
# hashed statements) run 20,000 each.  The kernel in use is printed, and
# printed again beside the wall times below, which depend on it:
# "sha-ni" where the CPU has the x86 SHA extensions, "ocaml" elsewhere.
# The decimal group also runs "fields = the concatenated parts" (the
# one-string Merkle leaf) 20,000 times.  The same
# step runs two table properties 10,000 and 15,000 times: test_sim's
# "agrees with Hashtbl, and spreads packed keys" (Int_table against a
# Stdlib Hashtbl, and its bucket spread on packed node pairs) and
# test_membership's "thresholds equal the fold after any changes" (the
# O(1) quorum count against a fold over the active slots).
sha_log="$(mktemp)"
QCHECK_LONG=1 dune exec test/test_crypto.exe -- test '^(sha256|field61|decimal)$' --verbose \
  > "$sha_log" 2>&1 \
  || { cat "$sha_log"; echo "sha256: kernel differs from the reference"; exit 1; }
QCHECK_LONG=1 dune exec test/test_sim.exe -- test '^itable$' \
  || { echo "int_table: differs from Hashtbl or chains packed keys"; exit 1; }
QCHECK_LONG=1 dune exec test/test_membership.exe -- test '^state-machine$' \
  || { echo "membership: thresholds differ from the fold"; exit 1; }
sha_kernel="$(grep -a -o 'sha256 kernel: [a-z-]*' "$sha_log")" \
  || { echo "sha256: the kernel test printed no kernel line"; exit 1; }
rm -f "$sha_log"
echo "$sha_kernel"

echo "== trace smoke: Chrome export + causal path =="
# The traced run must export Chrome trace_event JSON, and one delivered
# message must reconstruct end to end with its broker include hop
# (test_trace additionally asserts every layer emitted events).
trace_dir="$(mktemp -d)"
dune exec bin/main.exe -- trace -o "$trace_dir"/t.json
dune exec bin/main.exe -- trace --follow auto \
  | grep -q "context propagation verified" \
  || { echo "trace smoke: no message path with verified context"; exit 1; }
rm -rf "$trace_dir"

echo "== reconfiguration under load =="
# The throughput cost of an ordered join + leave under sustained load.
dune exec bin/main.exe -- run reconfig-load --scale quick

echo "== capacity model: future work and broker lanes, pinned =="
# Both read their bounds from Ceiling (lib/experiments/ceiling.ml), the
# one capacity model; their stdout is deterministic and pinned byte for
# byte.  future prints the pk-offload ceilings.  broker-cores sweeps
# 1/4/16/32 worker lanes on one overloaded broker and fails itself if
# throughput is not monotone in lanes, does not scale from 1 to 32
# lanes, or if 32 lanes land above 1.05x or below 0.5x the NIC bound
# (Ceiling.check).
for pin in future broker-cores; do
  pin_out="$(mktemp)"
  dune exec bin/main.exe -- run "$pin" --scale quick > "$pin_out"
  cmp "test/pins/$(echo "$pin" | tr - _).expected" "$pin_out" \
    || { echo "$pin: stdout differs from its test/pins file"; exit 1; }
  rm -f "$pin_out"
done

echo "== broker fleet scale-out =="
# lib/fleet: 1/2/4/8 hash-partitioned brokers under per-point saturation;
# the experiment itself fails if delivered throughput is not monotone in
# fleet size, and through Ceiling.check if a point delivers above 1.05x
# the fleet's aggregate NIC bound, if 2 brokers do not clear the
# single-broker NIC bound, or if 4 brokers land below 2.5x it.  Its
# stdout is deterministic and
# pinned byte for byte (about 40 s, so it runs here and not under
# runtest).  Its wall seconds are printed so that a slowdown shows in the
# log.
scaleout_out="$(mktemp)"
scaleout_start="$(date +%s)"
dune exec bin/main.exe -- run broker-scaleout --scale quick > "$scaleout_out"
echo "broker-scaleout: $(( $(date +%s) - scaleout_start )) s wall ($sha_kernel)"
cmp test/pins/broker_scaleout.expected "$scaleout_out" \
  || { echo "broker-scaleout: stdout differs from test/pins/broker_scaleout.expected"; exit 1; }
rm -f "$scaleout_out"

echo "== sweep orchestrator smoke =="
# Tiny manifest, run serially: the aggregated results file must exist
# and parse with every cell present (--figures re-reads it through the
# same parser), and a second invocation must resume (skip all completed
# cells) rather than re-run.
sweep_out="$(mktemp -d)"
dune exec bin/main.exe -- sweep --manifest examples/sweep-ci.json \
  --out "$sweep_out" --serial
ls "$sweep_out"/results-*.json >/dev/null \
  || { echo "sweep smoke: no results file"; exit 1; }
dune exec bin/main.exe -- sweep --manifest examples/sweep-ci.json \
  --out "$sweep_out" --figures | grep -q "cells, 0 missing" \
  || { echo "sweep smoke: results file invalid or incomplete"; exit 1; }
dune exec bin/main.exe -- sweep --manifest examples/sweep-ci.json \
  --out "$sweep_out" --serial | grep -q "0 completed, 4 resumed" \
  || { echo "sweep smoke: resume did not engage"; exit 1; }
rm -rf "$sweep_out"

echo "== run report smoke =="
# Two same-seed `chopchop trace` runs must write byte-identical --no-wall
# reports, profile allocation counts included (the runtest pin leaves
# those out).  The doctor's diagnosis of a stalled run is pinned under
# runtest (test/pins).
prof_dir="$(mktemp -d)"
dune exec bin/main.exe -- trace --no-wall -o "$prof_dir/t1.json" \
  --report "$prof_dir/r1.json" >/dev/null
dune exec bin/main.exe -- trace --no-wall -o "$prof_dir/t2.json" \
  --report "$prof_dir/r2.json" >/dev/null
cmp "$prof_dir/r1.json" "$prof_dir/r2.json" \
  || { echo "report smoke: deterministic run report differs between runs"; exit 1; }
rm -rf "$prof_dir"

echo "== paper headline: full-scale saturation point =="
# Fig. 7's ChopChop-BFT-SMaRt point at the paper's scale: 64 servers,
# 4.4e7 op/s offered (~1.5 min).  The experiment fails itself if it
# delivers less than 95% of the offered rate or if no measurement client
# completed a message inside the window (an empty latency sample).  The
# longest step here, so its wall seconds are printed.
headline_start="$(date +%s)"
dune exec bin/main.exe -- run headline --scale full
echo "headline: $(( $(date +%s) - headline_start )) s wall ($sha_kernel)"

echo "== bench baseline regression gate =="
# Regenerate the machine-readable baseline and diff it against the
# committed one; the sim is deterministic, so any gated drift is a real
# code-behaviour change (regenerate + commit BENCH_chopchop.json when
# intentional).
tmp_bench="$(mktemp)"
trap 'rm -f "$tmp_bench"' EXIT
CHOPCHOP_BENCH_OUT="$tmp_bench" dune exec bench/main.exe -- json
scripts/bench_compare BENCH_chopchop.json "$tmp_bench"

echo "ci ok"
