"""The benchmark's workloads: which operations each one runs, chosen by seed.

An operation is either a command line (`cli`) or one library call with an
optional chain of method calls on its result (`lib`).  Each workload is a
list of groups; a seed picks one operation from every group (the small
parameters) and permutes the order.  Sizes are fixed, so the seed changes a
pass's work only through those parameters.
"""

from __future__ import annotations

import random
from typing import List

WORKLOADS = ("verify", "sequences", "bivariate", "ladders")

CHECK_FAMILIES = ("skew", "dual", "hoppy", "ternary", "amplitude", "motzkin-bounded",
                  "deutsch-strip", "bijections", "horton", "marked", "retakh")
ASYM_KINDS = ("horton_avg", "node_count_growth", "marked_leaves", "marked_height",
              "red_edges", "retakh_height", "retakh_leaves", "motzkin_height",
              "amplitude_avg", "amplitude_split", "kemp_valley", "kemp_gap")
# asym sizes that differ from the default --n 160.  `marked_height --n 640`
# (98 s) is too long to repeat; `horton_avg` with a=2 legitimately fails its
# trend and exits 1, so only a in {0, 1} is drawn.
ASYM_N = {"horton_avg": 4096, "marked_height": 240, "kemp_valley": 80, "kemp_gap": 80}


def cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def lib(call: str, *args, then=()) -> dict:
    return {"kind": "lib", "call": call, "args": list(args),
            "then": [[name, list(margs)] for name, margs in then]}


def key(op: dict) -> str:
    """A stable, readable name for an operation; the oracle is keyed by it."""
    if op["kind"] == "cli":
        return " ".join(op["argv"])
    text = f"{op['call']}({', '.join(map(repr, op['args']))})"
    for name, margs in op["then"]:
        text += f".{name}({', '.join(map(repr, margs))})"
    return text


def _seq(family: str, n: int, **params) -> dict:
    argv = ["seq", "--family", family, "--n", n]
    for flag, value in params.items():
        argv += [f"--{flag}", value]
    return cli(*argv)


def _asym(kind: str) -> List[dict]:
    argv = ["asym", "--family", kind]
    if kind in ASYM_N:
        argv += ["--n", ASYM_N[kind]]
    if kind == "horton_avg":
        return [cli(*argv, "--tolerance", "0.6", "--a", a) for a in (0, 1)]
    return [cli(*argv)]


def groups(workload: str) -> List[List[dict]]:
    """The operation groups of a workload; a run uses one operation per group."""
    if workload == "verify":
        return [[cli("check", "--family", fam)] for fam in CHECK_FAMILIES]
    if workload == "sequences":
        return [
            # (t, j) = (2, 0) and (2, 1) take a fifteenth of the others' time,
            # so drawing them would make a pass's work depend on the seed.
            [_seq("deutsch-phi", 60, t=t, j=j) for t in range(3) for j in range(3)
             if (t, j) not in ((2, 0), (2, 1))],
            [_seq("horton-Rp", 60, j=p, a=a) for p in (1, 2, 3) for a in range(3)],
            [_seq("marked-ph", 60, j=h) for h in range(1, 5)],
            [_seq("kemp-valley", 40)],
            [_seq("kemp-peak", 40)],
            [_seq("retakh", 60)],
            [_seq("skew-sj", 400, j=j) for j in range(4)],
            [_seq("dual-gj", 400, j=j) for j in range(4)],
            [_seq("hoppy-neg", 60, k=k) for k in (2, 3)],
            [_seq("a002212", 400)],
        ]
    if workload == "bivariate":
        return [
            [lib("pathseries.skew_red_series", 40)],
            [lib("pathseries.skew_red_series", 30,
                 then=[("deriv_marker", ["w"]), ("subs_markers", [{"w": 1}])])],
            [lib("treeseries.marked_leaf_series", 40)],
            [lib("treeseries.ternary_factorization_check", 20)],
            [lib("treeseries.ternary_xi", 14)],
            [lib("pathseries.skew_red_fixed_power", k, 60) for k in range(5)],
        ]
    if workload == "ladders":
        return [_asym(kind) for kind in ASYM_KINDS]
    raise ValueError(f"unknown workload {workload!r}")


def choose(workload: str, seed: int) -> List[dict]:
    """The operations of one pass: one per group, in a seed-dependent order."""
    rng = random.Random(f"{workload}/{seed}")
    ops = [rng.choice(group) for group in groups(workload)]
    rng.shuffle(ops)
    return ops


def every_op() -> List[dict]:
    """Every operation any seed can generate, for recording the oracle."""
    return [op for w in WORKLOADS for group in groups(w) for op in group]
