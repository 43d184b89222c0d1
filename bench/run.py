"""Benchmark driver for latticepaths.

Usage (from the root of a checkout):

    python3 bench/run.py --workload verify --seed 1 --seconds 28 --trace 0

Runs the operations of one workload (or `all` of them) one after another,
each in a fresh interpreter (`child.py`), for about `--seconds` seconds of
whole passes.  Every output is checked against the digest recorded in
`oracle.json`.  With `--trace 0` the last line of stdout is a JSON object
with the end-to-end metrics; with `--trace 1` it carries the per-layer
metrics of the traced passes, and the traffic check is printed above it.  A
record of the run, with the operations, per-operation numbers and machine
facts, is written to `.bench_out/`.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import ops
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLE = BENCH / "oracle.json"
OUT = ROOT / ".bench_out"
OP_TIMEOUT_S = 60.0
# Times are reported at the machine speed where the child's calibration
# slice (`child.calibrate`) takes CAL_REF_S and the interpreter takes
# START_REF_S to reach the child's `main`; see README.md.
CAL_REF_S = 0.025
START_REF_S = 0.065
# A run stops starting passes so that it ends well inside 180 seconds.
RUN_DEADLINE_S = 150.0

END_TO_END = {"wall_s": "s", "compute_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Layers each workload is meant to load; the traffic check flags a workload
# where they carry less than half of the self time inside operation calls.
INTENDED = {
    "verify": ("trees", "paths", "bijections", "cli"),
    "sequences": ("series",),
    "bivariate": ("series",),
    "ladders": ("treeseries", "combinat", "pathseries"),
}


PER_LAYER = [f"{layer}.{m}" for layer in spans.LAYERS for m in ("self_s", "calls", "errors")] + [
    "paths.objects", "trees.objects", "paths.stat_calls", "trees.stat_calls",
    "trees.stat_per_object", "bijections.maps", "series.mul", "series.inverse", "series.sqrt",
    "series.compose", "series.invert", "series.max_order", "combinat.trinomial_calls",
    "trace.overhead_s"]


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "trees.stat_per_object":
        return "calls/object"
    if name == "series.max_order":
        return "order"
    return "count"


# ----------------------------------------------------------------------
# running operations
# ----------------------------------------------------------------------

def run_op(op: dict, op_id: int, trace: bool, expected: Optional[dict], timeout: float) -> dict:
    """Run one operation in a child interpreter and judge its output."""
    cmd = [sys.executable, str(BENCH / "child.py"), "1" if trace else "0", str(SRC),
           json.dumps(op)]
    rec = {"op": op_id, "key": ops.key(op)}
    spawned = time.monotonic()  # the child's lifetime runs from spawn to exit
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        rec["failure"] = f"timeout after {timeout:.0f} s"
        return rec
    line, _, body = out.partition(b"\n")
    try:
        child = json.loads(line)
    except ValueError:
        rec["failure"] = f"child exited {proc.returncode}: {err.decode().strip()[-400:]}"
        return rec
    rec.update({k: v for k, v in child.items() if k not in ("spans", "started")})
    rec["wall_s"] = time.monotonic() - spawned - sum(child["calibration_s"])
    rec["start_s"] = child.pop("started") - spawned
    if "spans" in child:
        rec["spans"] = spans.SpanTable.from_bytes({**child["spans"], "op": op_id}, body)
    if "error" in child:
        rec["failure"] = "exception: " + child["error"].strip().splitlines()[-1]
    elif not Path(child["package"]).resolve().is_relative_to(SRC.resolve()):
        rec["failure"] = f"imported latticepaths from {child['package']}"
    elif expected is None:
        rec["failure"] = "no recorded digest for this operation"
    elif child["exit"] != expected["exit"]:
        rec["failure"] = f"exit {child['exit']}, expected {expected['exit']}"
    elif child["digest"] != expected["digest"]:
        rec["failure"] = "output differs from the recorded digest"
    return rec


def run_pass(op_list: List[dict], trace: bool, oracle: Dict[str, dict], deadline: float) -> dict:
    """One pass over the workload, one child after another.

    Times are scaled to reference machine speed by the geometric mean of two
    probes that no program change can move: CAL_REF_S over the median of the
    pass's calibration samples (two per child), and START_REF_S over the
    median time the children took to reach `main`.
    """
    records = []
    for i, op in enumerate(op_list):
        timeout = max(1.0, min(OP_TIMEOUT_S, deadline - time.perf_counter()))
        records.append(run_op(op, i, trace, oracle.get(ops.key(op)), timeout))
    samples = [c for r in records for c in r.get("calibration_s", ())]
    starts = [r["start_s"] for r in records if "start_s" in r]
    scale = 1.0
    if samples and starts:
        scale = math.sqrt(CAL_REF_S / statistics.median(samples)
                          * START_REF_S / statistics.median(starts))
    raw_wall = sum(r["wall_s"] for r in records if "wall_s" in r)
    raw_compute = sum(r["compute_s"] for r in records if "compute_s" in r)
    raw_setups = [r["setup_s"] for r in records if "setup_s" in r]
    result = {
        "trace": trace,
        "scale": scale,
        "wall_s": raw_wall * scale,
        "compute_s": raw_compute * scale,
        "setups": [s * scale for s in raw_setups],
        "peak_rss_mb": max((r["rss_mb"] for r in records if "rss_mb" in r), default=0.0),
        "raw": {"wall_s": raw_wall, "compute_s": raw_compute, "setups": raw_setups},
    }
    if trace:
        # Reduce the spans as soon as the pass ends; a traced `check horton`
        # alone records about a million of them.
        tables = [r.pop("spans") for r in records if "spans" in r]
        for table in tables:
            table.scale = scale
        result["layers"], result["shares"] = spans.layer_metrics(tables)
    result["records"] = records
    return result


def warm_up() -> None:
    """Compile the package's bytecode and fill the file cache before timing."""
    subprocess.run([sys.executable, "-c", "import latticepaths.cli"], cwd=ROOT,
                   env={**os.environ, "PYTHONPATH": str(SRC)},
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 oracle: Dict[str, dict], started: float) -> dict:
    op_list = ops.choose(workload, seed)
    deadline = started + RUN_DEADLINE_S
    passes: List[dict] = []
    t0 = time.perf_counter()
    # Traced runs alternate untraced and traced passes, so that the tracing
    # overhead is measured on the same machine state.
    kinds = [False, True] if trace else [False]
    while True:
        for kind in kinds:
            passes.append(run_pass(op_list, kind, oracle, deadline))
        spent = time.perf_counter() - t0
        per_round = spent / (len(passes) // len(kinds))
        # Another round if that ends the run nearer to `seconds` than stopping.
        if spent + per_round / 2 > seconds or time.perf_counter() + per_round > deadline:
            break
    return summarise(workload, seed, op_list, passes)


def summarise(workload: str, seed: int, op_list: List[dict], passes: List[dict]) -> dict:
    plain = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    records = [r for p in passes for r in p["records"]]
    failures = [(r["key"], r["failure"]) for r in records if "failure" in r]
    e2e = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "compute_s": statistics.median(p["compute_s"] for p in plain),
        "setup_s": statistics.median(s for p in plain for s in p["setups"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    raw = {name: statistics.median(p["raw"][name] for p in plain)
           for name in ("wall_s", "compute_s")}
    raw["setup_s"] = statistics.median(s for p in plain for s in p["raw"]["setups"])
    result = {
        "workload": workload, "seed": seed, "ops": [ops.key(op) for op in op_list],
        "attempted": len(records), "failed": len(failures), "failures": failures,
        "passes": len(plain), "traced_passes": len(traced), "end_to_end": e2e, "raw": raw,
        "scales": [p["scale"] for p in passes],
        "per_op": [p["records"] for p in passes],
    }
    if traced:
        per_layer = {}
        for name in traced[0]["layers"]:
            values = [p["layers"][name] for p in traced]
            per_layer[name] = statistics.median(values) if name.endswith("_s") else values[-1]
        per_layer["trace.overhead_s"] = (statistics.median(p["compute_s"] for p in traced)
                                         - e2e["compute_s"])
        result["per_layer"] = per_layer
        result["shares"] = traced[-1]["shares"]
    return result


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def traffic_check(result: dict) -> List[str]:
    """Flags for a workload whose intended layers carry under half its self time."""
    share = sum(result["shares"][layer] for layer in INTENDED[result["workload"]])
    if share < 0.5:
        return [f"FLAG {result['workload']}: intended layers "
                f"{'+'.join(INTENDED[result['workload']])} carry {share:.1%} of self time"]
    return []


def print_report(result: dict, trace: bool) -> None:
    w = result["workload"]
    frac = result["failed"] / result["attempted"]
    print(f"# {w}: seed {result['seed']}, {len(result['ops'])} operations, "
          f"{result['passes']} untraced and {result['traced_passes']} traced passes")
    for name, unit in END_TO_END.items():
        raw = result["raw"].get(name)
        print(f"{w}  {name:12s} {result['end_to_end'][name]:12.4f} {unit}"
              + (f"   (unscaled {raw:.4f} {unit})" if raw is not None else ""))
    print(f"{w}  {'fail_frac':12s} {frac:12.4f} failed/attempted "
          f"({result['failed']}/{result['attempted']})")
    for key, why in result["failures"]:
        print(f"{w}  FAIL {key}: {why}")
    if trace:
        for name in PER_LAYER:
            print(f"{w}  {name:26s} {result['per_layer'][name]:14.6g} {per_layer_unit(name)}")
        intended = INTENDED[w]
        shares = "  ".join(f"{layer} {s:.1%}" for layer, s in result["shares"].items() if s)
        print(f"{w}  shares of compute self time: {shares}")
        print(f"{w}  intended layers {'+'.join(intended)}: "
              f"{sum(result['shares'][layer] for layer in intended):.1%}")
        for line in traffic_check(result):
            print(line)


def metrics_json(result: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        return {prefix + name: {"value": result["per_layer"][name], "unit": per_layer_unit(name)}
                for name in PER_LAYER}
    return {prefix + name: {"value": result["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END.items()}


def machine_facts(seed: int, seconds: float, trace: bool) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        sha = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "latticepaths").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha, "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "seed": seed, "seconds": seconds, "trace": trace, "op_timeout_s": OP_TIMEOUT_S,
        "tuning": "none: no pinning, no frequency control; one child at a time",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*ops.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "latticepaths" / "__init__.py").is_file():
        print(f"no latticepaths package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    oracle = json.loads(ORACLE.read_text())
    trace = bool(args.trace)
    workloads = ops.WORKLOADS if args.workload == "all" else (args.workload,)
    warm_up()

    results = []
    for w in workloads:
        # `all` shares the time budget between the workloads.
        results.append(run_workload(w, args.seed, args.seconds, trace, oracle,
                                    started if len(workloads) == 1 else time.perf_counter()))
        print_report(results[-1], trace)

    lines = []
    if trace and len(results) > 1:
        for layer in spans.LAYERS:
            if all(r["per_layer"][f"{layer}.calls"] == 0 for r in results):
                lines.append(f"FLAG layer {layer}: no calls in any workload")
    if trace:
        flags = lines + [f for r in results for f in traffic_check(r)]
        print("traffic check: " + ("passed" if not flags else f"{len(flags)} flag(s)"))
        for line in lines:
            print(line)

    OUT.mkdir(exist_ok=True)
    facts = machine_facts(args.seed, args.seconds, trace)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"machine": facts, "results": results}, indent=1))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = metrics_json(results[0], trace)
    else:
        metrics = {}
        for r in results:
            metrics.update(metrics_json(r, trace, prefix=f"{r['workload']}."))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
