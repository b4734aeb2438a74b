"""Runs workload passes in-process through ``fringelab.cli.main``.

Started by ``run.py`` as a fresh interpreter, so its peak resident set is
that of the process that ran the passes::

    python3 perfbench/worker.py SPEC.json RESULT.json

The spec names the source tree to import fringelab from, the invocations
of one pass, the output directory, the measuring time and the mode:
``untraced`` runs a warm-up pass and then as many whole passes as fit in
the time (at least one), timing the reference loop (``reference.py``)
before each invocation and, after each pass, a set-up launch and a
reference launch; ``traced``
runs one untraced pass and then one traced pass.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reference import LAUNCH_CODE, reference_loop  # noqa: E402  (local modules)
from spans import Tracer  # noqa: E402

# One reference loop before an invocation per this many seconds it takes.
LOOP_EVERY_S = 0.15


def import_cli(src: Path):
    """Import ``fringelab.cli`` from ``src``, refusing any other copy."""
    sys.path.insert(0, str(src))
    import fringelab.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"fringelab was imported from {cli.__file__}, "
                          f"not from {src}")
    return cli


def output_digest(stdout: bytes, out_path: Path | None) -> str:
    h = hashlib.sha256(stdout)
    h.update(b"\0")
    if out_path is not None and out_path.exists():
        h.update(out_path.read_bytes())
    return h.hexdigest()


def run_pass(cli, invocations: list[dict], pass_dir: Path,
             tracer: Tracer | None = None, before=None) -> dict:
    """Run each invocation once, closed loop, timing only ``cli.main``.

    ``before``, if given, is called with the invocation's index before
    each invocation, untimed.
    """
    pass_dir.mkdir(parents=True, exist_ok=True)
    seconds, codes, digests = [], [], []
    for request, inv in enumerate(invocations):
        out_path = pass_dir / inv["out"] if inv["out"] else None
        argv = [str(out_path) if a == "{out}" else a for a in inv["argv"]]
        buf = io.StringIO()
        if tracer is not None:
            tracer.request = request
        if before is not None:
            before(request)
        gc.collect()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as err:  # argparse rejects flags this way
                code = err.code if isinstance(err.code, int) else 1
            except Exception as err:  # recorded as a failed invocation
                print(f"worker: {inv['name']} raised {type(err).__name__}: {err}",
                      file=sys.stderr)
                code = -1
        seconds.append(time.perf_counter() - start)
        stdout = buf.getvalue().encode("utf-8")
        (pass_dir / f"{inv['name']}.stdout").write_bytes(stdout)
        codes.append(code)
        digests.append(output_digest(stdout, out_path))
    return {"traced": tracer is not None, "seconds": seconds,
            "wall_s": sum(seconds), "codes": codes, "digests": digests}


def time_launch(code: str) -> tuple[float, str]:
    """Seconds from launching ``python -c code`` until it prints its line.

    Returns them with the line.
    """
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code],
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"launch of {code!r} failed (exit {proc.returncode})")
    return elapsed, line.decode().strip()


def time_setup(code: str, src: Path) -> float:
    """Seconds from launch until ``code`` has imported ``fringelab.cli``.

    ``code`` calls ``build_parser()`` and prints the module's path, which
    must lie under ``src``.
    """
    elapsed, module = time_launch(code)
    if not Path(module).is_relative_to(src):
        raise RuntimeError(f"set-up imported {module}, not a module under {src}")
    return elapsed


def run(spec: dict) -> dict:
    src = Path(spec["src"])
    cli = import_cli(src)
    out_dir = Path(spec["out_dir"])
    invocations = spec["invocations"]
    result: dict = {"passes": [], "properties": {}, "setup_s": [],
                    "reference_loop_s": [], "reference_launch_s": []}
    if spec.get("polyline_histogram"):
        result["properties"]["polyline_vertex_histogram"] = polyline_histogram(
            spec["polyline_histogram"]["seed"], spec["polyline_histogram"]["trials"])
    setup = spec.get("setup")

    # The host's speed is sampled before every invocation after the warm-up
    # pass, by as many reference loops as that invocation took multiples of
    # LOOP_EVERY_S in the warm-up pass, so the loops weigh each invocation
    # by its time, as the pass time does.
    loops: list[int] = []

    def time_reference(request: int) -> None:
        if spec["mode"] == "untraced" and loops:
            for _ in range(loops[request]):
                result["reference_loop_s"].append(reference_loop())

    if setup:
        time_setup(setup["code"], src)  # warm-up: may compile bytecode
        time_launch(LAUNCH_CODE)
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        index = len(result["passes"])
        pass_dir = out_dir / f"pass{index}"
        started = time.perf_counter()
        result["passes"].append(run_pass(cli, invocations, pass_dir,
                                         before=time_reference))
        if index > 0:  # pass 0 stays on disk for the correctness checks
            shutil.rmtree(pass_dir)
        else:
            loops = [max(1, round(t / LOOP_EVERY_S))
                     for t in result["passes"][0]["seconds"]]
        if index == 1 or spec["mode"] == "traced":
            # Peak resident set after a fixed amount of work (the warm-up
            # pass and one measured pass), so it does not depend on how many
            # passes the host's speed let the run fit in.
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        # Set-up launches are spread over the run, between passes, so that
        # they meet the same host conditions as the passes.
        if setup and len(result["setup_s"]) < setup["launches"]:
            result["setup_s"].append(time_setup(setup["code"], src))
            result["reference_launch_s"].append(time_launch(LAUNCH_CODE)[0])
        # Start another pass only if one more, as long as this one, still
        # ends by the deadline; so a run measures at most ``seconds``
        # (or two passes, if they are longer).
        now = time.perf_counter()
        if spec["mode"] == "traced" or (
                index > 0 and now + (now - started) > deadline):
            break
    if spec["mode"] == "traced":
        tracer = Tracer()
        with tracer:
            result["passes"].append(
                run_pass(cli, invocations, out_dir / "traced", tracer))
        result["trace"] = tracer.summary()
        tracer.write(Path(spec["trace_path"]))
    return result


def polyline_histogram(seed: int, trials: int | None) -> dict[str, int]:
    """Vertex counts of the worldlines ``worldline-no-branching`` draws.

    Replays the check's fixture stream (one worldline, then one map, per
    trial, from the generator seeded with ``[seed, registry index]``).
    """
    import numpy as np
    from fringelab.checks import (REGISTRY, random_invertible_frame_map,
                                  random_simple_worldline)
    from fringelab.constants import DEFAULT_TRIALS
    if trials is None:
        trials = DEFAULT_TRIALS
    index = [spec.id for spec in REGISTRY].index("worldline-no-branching")
    rng = np.random.default_rng([seed, index])
    counts: dict[int, int] = {}
    for _ in range(trials):
        n = len(random_simple_worldline(rng))
        random_invertible_frame_map(rng)
        counts[n] = counts.get(n, 0) + 1
    return {str(n): counts[n] for n in sorted(counts)}


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = run(spec)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
