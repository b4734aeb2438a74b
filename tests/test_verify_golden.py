"""The benchmark's verify workload against its golden digests, at every seed.

A benchmark run compares its output bytes with ``perfbench/golden.json``
at the one seed it runs.  A kernel change that flips a check's verdict at
another seed shows only in the bytes ``check`` prints, so this runs both
verify invocations (``check``, then ``nogo``) at the benchmark's full sizes
through the benchmark's own worker, at each of the 16 seeds recorded there,
and compares each digest with the golden one.  It reads ``perfbench/`` and
writes only under pytest's temporary directory.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402  (a perfbench module)
import workloads  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
SEEDS = range(16)


@pytest.fixture(scope="module")
def cli():
    return worker.import_cli(BENCH.parent / "src")


def test_every_golden_verify_seed_is_run():
    assert sorted(GOLDEN["digests"]["verify"], key=int) == [str(s) for s in SEEDS]


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_outputs_are_golden(cli, tmp_path, seed):
    invocations, _ = workloads.generate("verify", seed, tmp_path / "in")
    result = worker.run_pass(cli, invocations, tmp_path / "out")
    assert result["codes"] == [0] * len(invocations)
    digests = {inv["name"]: d for inv, d in zip(invocations, result["digests"])}
    assert digests == GOLDEN["digests"]["verify"][str(seed)]
