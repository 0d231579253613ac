"""Self-tests of the benchmark: `python3 -m pytest perfbench`.

The quick-run tests start the benchmark itself (with --seconds 1); the
first of them builds the cached models if the checkout has none yet.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0, 10] has children a [1, 4] and b [3.5, 6], which overlap, and
    # c [8, 12], which runs past the root's end; a has a child [2, 3].
    starts = [0.0, 1.0, 2.0, 3.5, 8.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    got = self_times(starts, ends, parents)
    assert got.tolist() == pytest.approx([10.0 - (5.0 + 2.0), 2.0, 1.0, 2.5, 4.0])


def test_spans_nest_and_carry_their_episode():
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x + 1
    mod.episode = lambda seed: mod.leaf(seed) + mod.leaf(seed)
    tracer = Tracer()
    tracer.wrap(mod, "leaf", "m.leaf")
    tracer.wrap(mod, "episode", "m.episode", episode_key=lambda a, k: a[0])
    tracer.enabled = True
    assert mod.episode(7) == 16
    mod.leaf(0)
    tracer.restore()
    assert tracer.names == ["m.episode", "m.leaf", "m.leaf", "m.leaf"]
    assert tracer.parents == [-1, 0, 0, -1]
    assert tracer.episodes == [7, 7, 7, None]
    assert mod.leaf(1) == 2 and len(tracer) == 4  # originals are back


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=1800)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["bayes.grad_evals_per_hmc_transition"]["value"] in (
            0.0, 12.0)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
