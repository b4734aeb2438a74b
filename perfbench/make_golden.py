"""Record the golden output digests the benchmark compares against.

    python3 perfbench/make_golden.py [--seeds 0-15]

Runs one pass of every workload per seed, refuses to record any output
that fails its correctness checks, and writes ``perfbench/golden.json``
with the digests and the commit and environment they were produced on.
Re-run it only when a change is meant to alter output bytes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run
import workloads


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-15"))
    args = p.parse_args()
    env = run.child_env()
    digests: dict = {w: {} for w in workloads.WORKLOADS}
    for workload in workloads.WORKLOADS:
        for seed in args.seeds:
            run_dir = run.RUN_DIR / f"golden-{workload}-{seed}"
            shutil.rmtree(run_dir, ignore_errors=True)
            try:
                invocations, _ = workloads.generate(workload, seed, run_dir / "in")
                spec = {"src": str(run.SRC), "invocations": invocations,
                        "out_dir": str(run_dir / "out"), "seconds": 0,
                        "mode": "untraced"}
                result = run.run_worker(spec, run_dir, env, run.DEADLINE_S)
                _, failed, problems = run.judge(invocations, result, run_dir, None)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            if failed:
                print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                return 1
            digests[workload][str(seed)] = {
                inv["name"]: d for inv, d in
                zip(invocations, result["passes"][0]["digests"])}
            print(f"{workload} seed {seed}: recorded", flush=True)
    doc = {"commit": git_commit(), "environment": run.environment(),
           "digests": digests}
    doc["environment"].pop("source")
    (run.HERE / "golden.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
