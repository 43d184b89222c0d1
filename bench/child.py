"""Run one benchmark operation in a fresh interpreter, as a CLI user would.

Usage: python3 bench/child.py TRACE SRC OP_JSON

TRACE is 0 or 1, SRC the directory holding the `latticepaths` package and
OP_JSON one operation from `ops.py`.  The child times `import latticepaths`
(with its command-line module) before it loads anything else the package
might share, runs the operation with stdout captured, and prints one line
of JSON: when its `main` started (`time.monotonic`, the driver's clock too),
setup and compute seconds, two calibration samples, its own peak RSS, the
exit code and a digest of the output.  When traced, the line also holds the span header and
the span columns follow it as raw bytes (see `spans.SpanTable`).
"""

import sys
import time


def _call(op: dict, wrap):
    """Run the operation; return (exit code, text to digest, compute seconds)."""
    import io
    if op["kind"] == "cli":
        main = wrap("cli.main", sys.modules["latticepaths.cli"].main)
        buf = io.StringIO()
        saved, sys.stdout = sys.stdout, buf
        t0 = time.perf_counter()
        try:
            code = main(op["argv"])
        finally:
            compute = time.perf_counter() - t0
            sys.stdout = saved
        return code, buf.getvalue(), compute
    module, _, func = op["call"].rpartition(".")
    fn = wrap(op["call"], getattr(sys.modules[f"latticepaths.{module}"], func))
    t0 = time.perf_counter()
    result = fn(*op["args"])
    for name, margs in op["then"]:
        result = getattr(result, name)(*margs)
    compute = time.perf_counter() - t0
    text = result.dump() if hasattr(result, "dump") else repr(result)
    return 0, text, compute


def digest(code: int, text: str) -> str:
    import hashlib
    return hashlib.sha256(f"exit {code}\n{text}".encode()).hexdigest()


def calibrate() -> float:
    """Seconds that one fixed slice of exact arithmetic takes right now.

    The machine's speed drifts by tens of percent within minutes, so the
    driver scales the pass's times by the median of these samples.  The slice
    mixes `Fraction` sums with a dict keyed by tuples, the package's staple
    work; `fractions` is loaded by then, as the package imports it.
    """
    from fractions import Fraction
    t0 = time.perf_counter()
    total = Fraction(0)
    counts = {}
    for k in range(1, 4000):
        total += Fraction(k % 7 + 1, k % 97 + 1)
        key = (k % 13, k % 5)
        counts[key] = counts.get(key, 0) + total.numerator % 1000
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """This interpreter's peak resident set size in MiB.

    `ru_maxrss` is not used: across exec, Linux keeps the larger of the new
    image's peak and the parent's, so it would report the driver's memory.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    started = time.monotonic()
    trace = argv[0] == "1"
    sys.path.insert(0, argv[1])
    if trace:
        import spans
        recorder = spans.SpanTable()
        spans.install_import_spans(recorder)
    t0 = time.perf_counter()
    import latticepaths
    import latticepaths.cli  # noqa: F401
    setup = time.perf_counter() - t0
    calibration = [calibrate()]

    import json
    import traceback
    op = json.loads(argv[2])
    if trace:
        spans.install_boundary_spans(recorder)
        wrap = recorder.wrap
    else:
        def wrap(name, fn):
            return fn
    record = {"started": started, "setup_s": setup, "package": latticepaths.__file__}
    try:
        code, text, compute = _call(op, wrap)
    except Exception:
        record["error"] = traceback.format_exc()
    else:
        record.update(exit=code, digest=digest(code, text), compute_s=compute)
    calibration.append(calibrate())
    record["calibration_s"] = calibration
    record["rss_mb"] = peak_rss_mb()
    if trace:
        record["spans"] = recorder.header()
    sys.stdout.buffer.write(json.dumps(record).encode() + b"\n")
    if trace:
        sys.stdout.buffer.write(recorder.to_bytes())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
