"""Benchmark of the flagcones CLI: time to report, set-up time and memory.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

One process runs the workload's commands through ``flagcones.cli.main``
back to back (a closed loop with one caller), pass after pass, until the
next pass would overrun ``--seconds``.  Every report is checked against the
acceptance values.  With ``--trace 0`` the end-to-end metrics are reported
(tracing off); with ``--trace 1`` untraced and traced passes alternate and
the per-layer metrics of the median traced pass are reported.  The last line
of standard output is one JSON object; the lines before it print every
metric by name with its unit, the environment and the report digest.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench-out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh processes timed for ``setup_s`` besides the benchmark process itself.
SETUP_PROBES = {False: 4, True: 1}

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (stdlib only; flagcones is imported by setup())


@dataclass
class Pass:
    traced: bool
    wall_s: float
    attempted: int
    failed: int
    items: int
    output_bytes: int
    digest: str


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the test of the benchmark")
    return p.parse_args(argv)


def _call(argv) -> int:
    """Exit code of one in-process CLI command; a raised exception is a failure."""
    from flagcones import cli

    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # a command that raises is counted as failed, not fatal
        traceback.print_exc(file=sys.stderr)
        return -1


def _stripped(value):
    """A report with every ``runtime_s`` field removed (it differs run to run)."""
    if isinstance(value, dict):
        return {k: _stripped(v) for k, v in value.items() if k != "runtime_s"}
    if isinstance(value, list):
        return [_stripped(v) for v in value]
    return value


def _digest(out: Path) -> tuple:
    """(sha256 of every report with runtime_s removed, total bytes written)."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        total += len(data)
        if path.suffix == ".json":
            data = json.dumps(_stripped(json.loads(data)), sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), total


def _run_pass(args, inputs, out: Path, tracer, pass_id: int) -> Pass:
    for path in out.iterdir():
        path.unlink()
    cmds = workloads.commands(args.workload, out, args.seed, args.smoke, inputs)
    log = io.StringIO()
    with redirect_stdout(log), (tracer.traced(pass_id) if tracer else nullcontext()):
        start = time.perf_counter()
        codes = [_call(c.argv) for c in cmds]
        wall = time.perf_counter() - start
    failed = items = 0
    for cmd, code in zip(cmds, codes):
        problems = [f"exit code {code}"] if code != 0 else []
        if not problems:
            try:
                problems, n = cmd.check()
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable report: {exc!r}"]
            else:
                items += n
        if problems:
            failed += 1
            print(f"FAILED {' '.join(cmd.argv)}: {'; '.join(problems)}", file=sys.stderr)
            print(log.getvalue(), file=sys.stderr)
    digest, size = _digest(out)
    return Pass(tracer is not None, wall, len(cmds), failed, items, size, digest)


def _passes(args, inputs, out: Path, tracer) -> list:
    """Closed loop: start a pass only while it is expected to end within --seconds."""
    kinds = (False, True) if tracer else (False,)
    passes = []
    begin = time.perf_counter()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        passes.append(_run_pass(args, inputs, out, tracer if traced else None, len(passes) + 1))
        if len(passes) < len(kinds):
            continue
        following = kinds[len(passes) % len(kinds)]
        expected = statistics.median(p.wall_s for p in passes if p.traced == following)
        if time.perf_counter() - begin + expected > args.seconds:
            return passes


def _probe_setup(args, env) -> float:
    cmd = [sys.executable, str(HERE / "probe_setup.py"), "--workload", args.workload]
    proc = subprocess.run(
        cmd + (["--smoke"] if args.smoke else []),
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "flagcones" / "__init__.py").is_file():
        print(f"perfbench: no flagcones sources under {SRC}", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    inputs, setup_s = workloads.setup(args.workload, args.smoke)
    import numpy
    import scipy

    import flagcones

    if Path(flagcones.__file__).resolve().parent != SRC / "flagcones":
        print(f"perfbench: imported flagcones from {flagcones.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import SETUP_PASS, UNITS, Tracer

        tracer = Tracer()
        with tracer.traced(SETUP_PASS):
            workloads.build_inputs(args.workload, args.smoke)
        setups = [setup_s]
    else:
        setups = [setup_s] + [_probe_setup(args, env) for _ in range(SETUP_PROBES[args.smoke])]

    RESULTS.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        passes = _passes(args, inputs, out, tracer)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = sorted({p.digest for p in passes})
    plain = [p for p in passes if not p.traced]
    walls = [p.wall_s for p in plain]
    wall = statistics.median(walls)
    q1, q3 = _quartiles(walls)
    setup_median = statistics.median(setups)
    env_record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpus_usable": threads,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "flagcones": flagcones.__version__,
    }
    if args.trace:
        traced = {i: p for i, p in enumerate(passes, start=1) if p.traced}
        order = sorted(traced, key=lambda i: traced[i].wall_s)
        chosen = order[(len(order) - 1) // 2]
        values = tracer.metrics(chosen, traced[chosen].wall_s)
        values["cli.output_bytes"] = traced[chosen].output_bytes
        values["trace.overhead_s"] = statistics.median(p.wall_s for p in traced.values()) - wall
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
        tracer.save(RESULTS / f"spans-{args.workload}.npz")
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": plain[0].items / wall, "unit": "1/s"},
            "setup_s": {"value": setup_median, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
    correct = failed == 0 and len(digests) == 1
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "environment": env_record,
        "passes": [vars(p) for p in passes],
        "setup_samples_s": setups,
        "wall_s": {"median": wall, "q1": q1, "q3": q3, "n": len(walls)},
        "fail_frac": failed / attempted,
        "digests": digests,
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print("environment " + json.dumps(env_record, sort_keys=True))
    print(f"wall_s       {wall:.6f} s  (q1 {q1:.6f}, q3 {q3:.6f}, n={len(walls)} passes)")
    print(f"setup_s      {setup_median:.6f} s  (n={len(setups)} fresh processes)")
    print(f"fail_frac    {failed / attempted:.6f}  ({failed} of {attempted} commands)")
    print(f"digest       {' '.join(digests)}")
    for key, m in metrics.items():
        if key not in ("wall_s", "setup_s"):
            print(f"{key:<36} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
