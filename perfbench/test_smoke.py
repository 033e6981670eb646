"""Smoke test of the benchmark itself, at minimal size.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs a one-cycle job set, one round (``--smoke``).  The test checks that
every metric BENCHMARK.json names is emitted, that a seed always generates
the same input bytes, and that the traced run sees exactly one
``embedding.pipeline`` call per campaign job.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(run.WORKLOADS)


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_one_pipeline_per_campaign_job(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(workload, 7, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        names = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    spans = json.loads((run.WORK / f"spans-{workload}-7.json").read_text())
    pipeline = spans["names"].index("embedding.pipeline") if "embedding.pipeline" in spans["names"] else -1
    per_job: dict[int, int] = {}
    for name, _start, _end, _parent, job in spans["spans"]:
        per_job[job] = per_job.get(job, 0) + (name == pipeline)
    expected = 1 if run.WORKLOADS[workload]["cmd"] == "pipeline" else 0
    assert per_job and set(per_job.values()) == {expected}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_input_bytes(workload):
    sys.path.insert(0, str(run.SRC))
    from nctorus import cli

    ref = run.load_reference()

    def inputs(seed):
        return [job.path.read_bytes() for job in run.build_jobs(workload, seed, ref, cli)]

    first = inputs(11)
    assert first == inputs(11)
    assert first != inputs(12)
