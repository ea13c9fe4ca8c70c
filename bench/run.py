"""The xpq benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
Set-up (a fresh-interpreter ``import xpq.cli`` plus input generation) is
repeated SETUP_REPEATS times and its median reported as setup_s.  The
run then executes whole rounds of blocks of ops, one caller in one
process, until S seconds have passed and at least MIN_BLOCKS blocks (at
least 100 ops) are done.  A round is the workload's ROUND blocks, after
which its rotations of pairs and specs repeat, so every run holds the
same mix of inputs.  Each op's output is checked by the workload's oracle outside
the timed region.

With --trace 0 the last line of stdout is the end-to-end result.  With
--trace 1 every other op runs under the span tracer (bench/spans.py)
and the last line holds the per-layer metrics; the ops in between run
untraced, so the run also prints the tracing overhead.  Both modes hash
the outputs of the first MIN_BLOCKS blocks, so their digests agree, and
agree across commits whose outputs are byte-identical.

Every time is reported on a calibrated clock.  The host shares its cores
with other tenants and runs at two speeds about 1.5x apart, in phases
that last minutes, so raw times of identical runs drift by up to 50%
between phases.  The run therefore times REF_LOOPS iterations of a fixed
pure-Python loop that never touches xpq and never allocates a tracked
object: once per set-up, and after every REF_EVERY_S seconds of ops.
Each time is scaled by REF_NOMINAL_S over the median loop time of its
phase (set-up or ops), which maps it to a host where the loop takes
REF_NOMINAL_S.  The raw figures are printed in the readable report.

Lines before the last one are a readable report on the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_BLOCKS = 5
SETUP_REPEATS = 5
REF_LOOPS = 100_000
REF_NOMINAL_S = 0.008  # the loop's time in the fast phase of a 2-core x86 host
REF_EVERY_S = 0.25
IMPORT_PROBE = "import time; t = time.perf_counter(); import xpq.cli; print(time.perf_counter() - t)"


def fresh_import_s() -> float:
    """Seconds a fresh interpreter spends in ``import xpq.cli``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("XPQ_")}
    env["PYTHONPATH"] = SRC
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    return float(done.stdout)


def reference_s() -> float:
    """The reference loop, timed: how fast this core runs right now."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "ref_ms": round(reference_s() * 1e3, 2),
    }


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def setup(name: str, seed: int):
    """Raw set-up times, import samples, reference times, and the workload."""
    from workloads import make

    imports, totals, refs = [], [], []
    for _ in range(SETUP_REPEATS):
        refs.append(reference_s())
        imp = fresh_import_s()
        start = time.perf_counter()
        workload = make(name, seed, ROOT)
        workload.block(0)
        totals.append(imp + time.perf_counter() - start)
        imports.append(imp)
    return totals, imports, refs, workload


def measure(workload, seconds: float, trace: bool):
    """Run whole rounds; return per-op records, the digest, the tracer, the
    children's trace totals, the block count and the reference times."""
    from spans import Tracer, merge

    tracer = Tracer() if trace else None
    child_raw = {}
    digest = hashlib.sha256()
    records = []  # (op traced, latency s, failure kind or None, message, info)
    refs = [reference_s()]
    since_ref = 0.0
    start = time.perf_counter()
    b = 0
    while b < MIN_BLOCKS or b % workload.ROUND or time.perf_counter() - start < seconds:
        for op in workload.block(b):
            traced = trace and len(records) % 2 == 1
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                res = workload.run(op, traced)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                res, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            since_ref += latency
            if since_ref >= REF_EVERY_S:
                refs.append(reference_s())
                since_ref = 0.0
            if res is not None:
                if b < MIN_BLOCKS:
                    digest.update(res.stdout)
                try:
                    error = workload.check(op, res)
                except Exception as exc:  # output the oracle cannot read
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
                if traced and "trace" in res.info:
                    merge(child_raw, res.info["trace"])
            kind = None
            if error is not None:
                kind = "unclean_refusal" if op.get("kind") == "refuse" else "wrong"
            info = {} if res is None else {"bytes": len(res.stdout), "code": res.info.get("code")}
            records.append((traced, latency, kind, error, info))
        b += 1
    return records, digest.hexdigest(), tracer, child_raw, b, refs


def end_to_end(records, setup_s: float, scale: float, subprocess_workload: bool) -> dict:
    """The end-to-end metrics; op times are multiplied by scale."""
    latencies = [r[1] * scale for r in records]
    ok = sum(1 for r in records if r[2] is None)
    who = resource.RUSAGE_CHILDREN if subprocess_workload else resource.RUSAGE_SELF
    return {
        "ops_per_s": {"value": ok / sum(latencies), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": percentile(latencies, 90) * 1e3, "unit": "ms"},
        "ok_frac": {"value": ok / len(records), "unit": "fraction"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
    }


def per_layer(records, tracer, child_raw, import_s: float, scale: float,
              cli_workload: bool, subprocess_workload: bool) -> dict:
    """The per-layer metrics; times measured during the ops are multiplied
    by scale, import_s comes calibrated."""
    from spans import layer_metrics, merge

    traced = [r for r in records if r[0]]
    n = len(traced)
    raw = tracer.snapshot()
    merge(raw, child_raw)
    extra = {
        "cli.import_s": import_s,
        "cli.process_s": sum(r[1] for r in traced) * scale / n if subprocess_workload else 0.0,
        "cli.stdout_bytes": sum(r[4].get("bytes", 0) for r in traced) / n if cli_workload else 0.0,
        "cli.exit_nonzero": sum(1 for r in traced if r[4].get("code") not in (0, None)) / n
        if cli_workload else 0.0,
    }
    metrics = layer_metrics(raw, n, extra)
    for name, m in metrics.items():
        if m["unit"] == "s/op" and name != "cli.process_s":
            m["value"] *= scale
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "xpq", "__init__.py")):
        print(f"error: no xpq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    env_before = environment()
    setup_totals, imports, setup_refs, workload = setup(args.workload, args.seed)
    import xpq.cli  # noqa: F401  the in-process workloads call into it

    records, digest, tracer, child_raw, blocks, refs = measure(workload, args.seconds, bool(args.trace))
    env_after = environment()
    setup_scale = REF_NOMINAL_S / statistics.median(setup_refs)
    scale = REF_NOMINAL_S / statistics.median(refs)

    subprocess_workload = args.workload == "cli_session"
    cli_workload = args.workload in ("cli_session", "orbit_census")
    failures = [r for r in records if r[2] is not None]
    wrong = sum(1 for r in failures if r[2] == "wrong")
    ops = len(records)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"environment before {json.dumps(env_before)}")
    print(f"environment after  {json.dumps(env_after)}")
    print(f"blocks {blocks}  ops {ops}  failed {len(failures)} (wrong answers {wrong})  "
          f"failed_frac {len(failures) / ops:.4f}")
    print(f"digest sha256 {digest} over the outputs of the first {MIN_BLOCKS} blocks")
    print(f"setup: raw median {statistics.median(setup_totals):.4f} s, of which fresh-interpreter "
          f"import xpq.cli {statistics.median(imports):.4f} s")
    print(f"reference loop: set-up median {statistics.median(setup_refs) * 1e3:.3f} ms, ops median "
          f"{statistics.median(refs) * 1e3:.3f} ms over {len(refs)} samples; nominal "
          f"{REF_NOMINAL_S * 1e3:g} ms, so times are scaled by {setup_scale:.4f} and {scale:.4f}")
    seen = set()
    for _, _, kind, message, _ in failures:
        if message not in seen:
            seen.add(message)
            print(f"failure ({kind}): {message}")

    if args.trace:
        # block 0 warms the library's caches, so it is left out of both sides
        warm = records[len(workload.block(0)):]
        traced = [r for r in warm if r[0]]
        untraced = [r for r in warm if not r[0]]
        rate_on = sum(1 for r in traced if r[2] is None) / sum(r[1] * scale for r in traced)
        rate_off = sum(1 for r in untraced if r[2] is None) / sum(r[1] * scale for r in untraced)
        print(f"tracing overhead: ops_per_s untraced {rate_off:.4f}, traced {rate_on:.4f}, "
              f"difference {rate_off - rate_on:.4f} ({(1 - rate_on / rate_off) * 100:.1f}%)")
        metrics = per_layer(records, tracer, child_raw, statistics.median(imports) * setup_scale,
                            scale, cli_workload, subprocess_workload)
    else:
        raw = end_to_end(records, statistics.median(setup_totals), 1.0, subprocess_workload)
        print("raw: " + "  ".join(f"{k} {m['value']:.6g}" for k, m in raw.items()))
        metrics = end_to_end(records, statistics.median(setup_totals) * setup_scale, scale,
                             subprocess_workload)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": ops,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
