"""fringelab benchmark: one seeded workload, measured end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {sweep,transform,verify} --seed N \
        --seconds S --trace {0,1}

The benchmark writes the workload's inputs from the seed, then runs whole
passes of the workload's CLI invocations in a fresh worker interpreter,
one invocation at a time (closed loop, a single client), until ``S``
seconds have been spent.  Every output is checked (exit code, invariants,
byte identity across passes and against the golden digests), and the last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(``wall_s``, ``setup_s``, ``peak_rss_mb``); the two times are scaled to a
fixed host speed by the reference work of ``reference.py``.  With
``--trace 1`` they are the per-layer self times and work counts from one
traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
sys.path.insert(0, str(HERE))

import outputs  # noqa: E402  (benchmark-local modules)
from reference import LAUNCH_S, LOOP_S  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed over up to this many fresh interpreters, launched one
# after each of the worker's passes (after one warm-up launch that may
# compile bytecode).
SETUP_LAUNCHES = 40
# BLAS threads for every child; at most nproc, and 1 keeps runs steady.
BLAS_THREADS = 1
# Every run must end well inside the 180 s a run may take.
DEADLINE_S = 170.0
SETUP_CODE = ("import fringelab.cli as c; c.build_parser(); "
              "print(c.__file__, flush=True)")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(spec: dict, run_dir: Path, env: dict[str, str],
               timeout: float) -> dict:
    spec_path, result_path = run_dir / "spec.json", run_dir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                             str(spec_path), str(result_path)],
                            cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s") from None
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def load_golden() -> dict:
    path = HERE / "golden.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["digests"]


def judge(invocations: list[dict], result: dict, run_dir: Path,
          golden: dict[str, str] | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every invocation of every pass."""
    first = result["passes"][0]
    cache: dict = {}
    bad_first = {}
    for i, inv in enumerate(invocations):
        found = outputs.check_invocation(inv, first["codes"][i],
                                         run_dir / "out" / "pass0", cache)
        if golden is not None and golden.get(inv["name"]) != first["digests"][i]:
            found.append("output digest differs from the golden digest")
        if found:
            bad_first[i] = found
    attempted = failed = 0
    problems = [f"{invocations[i]['name']}: {p}"
                for i, found in bad_first.items() for p in found]
    for k, run in enumerate(result["passes"]):
        for i, inv in enumerate(invocations):
            attempted += 1
            same = run["digests"][i] == first["digests"][i]
            if i in bad_first or run["codes"][i] != 0 or not same:
                failed += 1
                if k and not same:
                    problems.append(f"{inv['name']}: pass {k} output differs "
                                    f"from pass 0")
    return attempted, failed, problems


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "source": str(SRC)}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    began = time.perf_counter()
    if not (SRC / "fringelab" / "cli.py").is_file():
        print(f"error: no fringelab sources under {SRC}", file=sys.stderr)
        return 2
    run_dir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return measure(args, run_dir, began)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args: argparse.Namespace, run_dir: Path, began: float) -> int:
    env = child_env()
    invocations, props = workloads.generate(args.workload, args.seed,
                                            run_dir / "in")
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    spec = {"src": str(SRC), "invocations": invocations,
            "out_dir": str(run_dir / "out"), "seconds": args.seconds,
            "mode": "traced" if args.trace else "untraced",
            "trace_path": str(RUN_DIR / "traces"
                              / f"{args.workload}-seed{args.seed}.npz")}
    if args.workload == "verify":
        spec["polyline_histogram"] = {"seed": args.seed % 2 ** 64,
                                      "trials": workloads.FULL.check_trials}
    if not args.trace:
        spec["setup"] = {"code": SETUP_CODE, "launches": SETUP_LAUNCHES}
    result = run_worker(spec, run_dir, env,
                        DEADLINE_S - (time.perf_counter() - began))
    props.update(result["properties"])
    print(f"inputs: {json.dumps(props)}")

    golden = load_golden().get(args.workload, {}).get(str(args.seed))
    attempted, failed, problems = judge(invocations, result, run_dir, golden)
    for problem in problems:
        print(f"FAIL {problem}")
    untraced = [p for p in result["passes"] if not p["traced"]]
    measured = untraced[1:] or untraced  # pass 0 warms caches up
    for i, inv in enumerate(invocations):
        times = [p["seconds"][i] for p in measured]
        print(f"  {inv['name']:<26} mean {statistics.fmean(times):.4f} s, "
              f"median {statistics.median(times):.4f} s, min {min(times):.4f} s "
              f"over {len(times)} passes (unscaled)")
    print(f"golden digests: {'compared' if golden else 'none recorded'} "
          f"for seed {args.seed}")

    if args.trace:
        traced = result["passes"][-1]
        summary = result["trace"]
        summary["trace.overhead_s"] = traced["wall_s"] - untraced[0]["wall_s"]
        metrics = {name: {"value": summary.get(name, 0), "unit": unit}
                   for name, unit in spans.metric_names()}
        print(f"trace: {summary['spans']} spans written to {spec['trace_path']}")
    else:
        # Each time is scaled by the reference work measured beside it.
        loop = statistics.fmean(result["reference_loop_s"])
        launch = statistics.fmean(result["reference_launch_s"])
        raw = {"wall_s": statistics.fmean(p["wall_s"] for p in measured),
               "setup_s": statistics.fmean(result["setup_s"])}
        scale = {"wall_s": LOOP_S / loop, "setup_s": LAUNCH_S / launch}
        metrics = {name: {"value": raw[name] * scale[name], "unit": "s"}
                   for name in raw}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
        for name in ("reference_loop_s", "reference_launch_s", "setup_s"):
            print(f"{name}: " + ", ".join(f"{t:.5f}" for t in result[name]))
        print(f"passes: {len(measured)} after warm-up; wall_s per pass: "
              + ", ".join(f"{p['wall_s']:.4f}" for p in measured))
        print(f"host speed: wall_s scaled by {LOOP_S} / {loop:.5f} (mean of "
              f"{len(result['reference_loop_s'])} loops) = {scale['wall_s']:.4f}; "
              f"setup_s by {LAUNCH_S} / {launch:.5f} (mean of "
              f"{len(result['reference_launch_s'])} launches) = "
              f"{scale['setup_s']:.4f}")
        for name, value in raw.items():
            print(f"{name + ' raw':<16} {value:.6g} s (mean, unscaled)")
        for name, m in metrics.items():
            print(f"{name:<16} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':<16} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} invocations failed)")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
