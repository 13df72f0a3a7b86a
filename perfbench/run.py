#!/usr/bin/env python3
"""Simulator-speed benchmark of the Chop Chop reproduction.

Builds perfbench/main.exe from the checkout it is run in, then runs one
workload on one seed, one fresh process per run, for about --seconds (at
least MIN_RUNS runs), plus SETUP_RUNS set-up-only processes.  Every process
is bracketed by runs of the host-speed reference (refkernel.exe), and its
times are scaled to a host on which the reference takes REF_NOMINAL_S.
With --trace 1 one more process runs with the per-layer ledger attached,
and its per-layer metrics are printed after the end-to-end ones.
Checks every run and prints the medians; the last line of stdout is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 perfbench/run.py --workload dense-pbft64 --seed 1 --seconds 36 --trace 0

See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
REF_EXE = os.path.join("_build", "default", "perfbench", "refkernel.exe")
WORKLOADS = ["dense-pbft64", "classic-fleet", "distill-clients"]
MIN_RUNS = 3
SETUP_RUNS = 5
RUN_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 840
# refkernel.exe's median time on the host the benchmark was built on.
# Scaled times are seconds of that host at that speed:
# raw time * REF_NOMINAL_S / (reference time around the run).
REF_NOMINAL_S = 0.085

END_TO_END = {
    "wall_s": "s",
    "msgs_per_wall_s": "msg/s",
    "setup_s": "s",
    "peak_heap_mb": "MB",
    "delivered_share": "ratio",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_msg": "ev/msg",
    "sim.events_per_wall_s": "ev/s",
    "sim.queue_depth_max": "count",
    "sim.dispatch_s": "s",
    "net.msgs_per_msg": "msg/msg",
    "net.bytes_per_msg": "B/msg",
    "server.self_s": "s",
    "server.events": "count",
    "server.minor_words_per_msg": "words/msg",
    "server.event_p50_us": "us",
    "server.event_p99_us": "us",
    "server.msgs_per_batch": "msg/batch",
    "broker.self_s": "s",
    "broker.events": "count",
    "broker.minor_words_per_msg": "words/msg",
    "broker.event_p99_us": "us",
    "broker.distillation_ratio": "ratio",
    "client.self_s": "s",
    "client.events": "count",
    "client.minor_words_per_msg": "words/msg",
    "client.heap_kb_per_client": "KiB",
    "rudp.self_s": "s",
    "rudp.timer_events_per_msg": "ev/msg",
    "rudp.retx_useful_share": "ratio",
    "store.self_s": "s",
    "store.wal_bytes_per_msg": "B/msg",
    "workload.self_s": "s",
    "other.self_s": "s",
    "gc.minor_words_per_msg": "words/msg",
    "gc.promoted_words_per_msg": "words/msg",
    "gc.major_collections": "count",
    "crypto.sha256_us": "us",
    "crypto.schnorr_sign_us": "us",
    "crypto.schnorr_verify_us": "us",
    "crypto.multisig_sign_us": "us",
    "crypto.merkle_build_ms": "ms",
    "crypto.merkle_verify_us": "us",
    "crypto.verify_ops_per_msg": "op/msg",
    "client.cert_verify_us": "us",
    "batch.verify_ms": "ms",
    "trace.overhead_share": "ratio",
}

# Simulated outcomes: constants of the seed.  Every run on one seed, traced
# or not, must read exactly the same.
DETERMINISTIC = [
    "submitted",
    "delivered0",
    "outcome.tput_ops",
    "outcome.lat_p50_s",
    "outcome.lat_p99_s",
    "outcome.decisions",
    "sim.events",
    "net.msgs",
]

# Whole-run GC readings come from untraced runs: the ledger allocates.
FROM_UNTRACED = ["gc.minor_words_per_msg", "gc.promoted_words_per_msg",
                 "gc.major_collections"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout of the repository "
             "(no dune-project and lib/ here)")
    dune = shutil.which("dune") or os.path.join(
        os.environ.get("OPAM_SWITCH_PREFIX", ""), "bin", "dune")
    try:
        # No shared dune cache: the build reads and writes only the checkout.
        r = subprocess.run([dune, "build", "--root", ".", "--cache=disabled",
                            "./perfbench/main.exe", "./perfbench/refkernel.exe"],
                           capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed:\n" + r.stdout + r.stderr)


def run(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out: " + " ".join(cmd))
    if r.returncode != 0:
        fail("run failed (%d): %s\n%s" % (r.returncode, " ".join(cmd), r.stderr))
    return r.stdout.strip().splitlines()[-1]


class Runner:
    """Runs benchmark processes, each between two reference runs.  The
    speed of a shared host drifts by up to 2x over seconds to minutes, and
    the reference drifts with it (README.md, "Host-speed scaling")."""

    def __init__(self, workload, seed):
        self.base = [EXE, "--workload", workload, "--seed", str(seed)]
        self.ref = float(run([REF_EXE]))

    def __call__(self, *flags):
        out = json.loads(run(self.base + list(flags)))
        before, self.ref = self.ref, float(run([REF_EXE]))
        out["scale"] = REF_NOMINAL_S / ((before + self.ref) / 2)
        return out


def median(xs):
    return statistics.median(xs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    build()

    # Start another run only while it should end inside --seconds, judging
    # by the previous one, so an invocation overshoots by little.
    start = time.monotonic()
    run_process = Runner(args.workload, args.seed)
    runs, last = [], 0.0
    while len(runs) < MIN_RUNS or time.monotonic() - start + last < args.seconds:
        t0 = time.monotonic()
        runs.append(run_process())
        last = time.monotonic() - t0
    setups = runs + [run_process("--setup-only") for _ in range(SETUP_RUNS)]
    traced = run_process("--traced") if args.trace else None

    # Correctness: each run passes its own check, and every run on this
    # seed (the traced one included) reads the same simulated outcome.
    first = runs[0]
    checked = runs + ([traced] if traced else [])
    same = all(r[k] == first[k] for r in checked for k in DETERMINISTIC)
    attempted = sum(r["submitted"] for r in runs)
    failed = sum(r["submitted"] if not (r["correct"] and same)
                 else r["submitted"] - r["delivered_min"] for r in runs)
    correct = failed == 0 and all(r["correct"] for r in checked) and same

    wall = median([r["wall_s"] * r["scale"] for r in runs])
    for k in DETERMINISTIC:
        print("%s %s" % (k, first[k]))
    print("runs %d, wall_s %s" % (len(runs), " ".join("%.3f" % r["wall_s"] for r in runs)))
    print("host scale %s" % " ".join("%.3f" % r["scale"] for r in runs))
    print("unscaled medians: wall_s %.6f, setup_s %.6f"
          % (median([r["wall_s"] for r in runs]), median([r["setup_s"] for r in setups])))
    if not same:
        print("MISMATCH: runs on one seed read different simulated outcomes")

    values = {
        "wall_s": wall,
        "msgs_per_wall_s": median([r["delivered0"] / (r["wall_s"] * r["scale"])
                                   for r in runs]),
        "setup_s": median([r["setup_s"] * r["scale"] for r in setups]),
        "peak_heap_mb": median([r["peak_heap_mb"] for r in runs]),
        "delivered_share": (attempted - failed) / attempted,
    }
    units = dict(END_TO_END)
    if traced:
        values.update({k: traced[k] for k in PER_LAYER if k in traced})
        for k in FROM_UNTRACED:
            values[k] = median([r[k] for r in runs])
        values["sim.events_per_wall_s"] = traced["sim.events"] / wall
        values["trace.overhead_share"] = (traced["traced_wall_s"] * traced["scale"]
                                          / wall - 1)
        parts = sum(traced[l + ".self_s"] for l in
                    ["server", "broker", "client", "rudp", "store", "workload", "other"])
        print("traced wall %.6f s = layer self %.6f s + sim.dispatch_s %.6f s"
              % (traced["traced_wall_s"], parts, traced["sim.dispatch_s"]))
        units.update(PER_LAYER)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for k, m in metrics.items():
        print("%-28s %14.6g %s" % (k, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
