"""Print the sha256 and exit code of every output of a fixed set of nctorus runs.

    PYTHONPATH=src python3 tools/output_manifest.py > change.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tools/output_manifest.py > parent.txt
    diff parent.txt change.txt

Two library versions produce the same output bytes and exit codes on this set
exactly when their manifests are equal.  The expected manifest is committed
next to this script as ``output_manifest.txt``, and CI diffs against it.  The
run set:

- ``simulate`` on the job sets of the ``simulate_sweep`` benchmark workload for
  seeds 1-3 (one descriptor per (p, q, k) shape, chosen as
  ``perfbench/run.py`` chooses them), each at ``--trials 5``, ``--trials 40``
  and ``--trials 40 --samples 20 --seed 9``;
- ``campaign --n N --seed S`` for N = 2..6 and S = 0..2;
- the seven input commands on the first 12 benchmark pool documents of each
  n in {2, ..., 6, 8}, and ``decompose`` on each of them with theta removed;
- a few runs that end in an error document: each input command on a document
  without ``g`` (exit 2), a theta entry ``"1e3"`` (exit 2), g with
  A = B = D = I and C = 0 (exit 1), the flip element at theta = 0 (exit 3), and
  ``simulate`` with ``samples`` null and ``campaign`` with ``trials`` null
  (exit 2).

Each line reads ``<sha256 of the output document> <exit code> <run>``; a run
that ends in an exception prints ``- exception:<type> <run>``.  Standard
library only: nctorus is imported from sys.path (set PYTHONPATH to the
``src`` directory of the version to list), and the benchmark's input
generator and reference file are read from this checkout's ``perfbench/``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

SWEEP_SEEDS = (1, 2, 3)
SWEEP_SIZES = (2, 3, 4, 5, 6)
SWEEP_TRIALS = 5
SWEEP_FLAGS = (["--trials", "5"], ["--trials", "40"], ["--trials", "40", "--samples", "20", "--seed", "9"])
CAMPAIGN_SIZES = range(2, 7)
CAMPAIGN_SEEDS = range(3)
POOL_SIZES = (2, 3, 4, 5, 6, 8)
POOL_DOCUMENTS = 12
INPUT_COMMANDS = ("check", "act", "normalize", "decompose", "embed", "pipeline", "simulate")


def job(A, B, C, D, theta, options=None) -> bytes:
    """A 2x2 input document, with the given options if any."""
    doc = {"version": "nctorus/1", "n": 2, "g": {"A": A, "B": B, "C": C, "D": D}, "theta": theta}
    return json.dumps(doc if options is None else {**doc, "options": options}).encode()


I2, O2 = [[1, 0], [0, 1]], [[0, 0], [0, 0]]
THETA = [["0", "1/3"], ["-1/3", "0"]]
ERROR_RUNS = (
    ("pipeline", "theta entry 1e3", job(O2, I2, I2, O2, [["0", "1e3"], ["-1e3", "0"]])),
    ("check", "B^t D + D^t B != 0", job(I2, I2, O2, I2, THETA)),
    ("act", "flip at theta 0", job(O2, I2, I2, O2, [["0", "0"], ["0", "0"]])),
    ("simulate", "samples null", job(O2, I2, I2, O2, THETA, {"samples": None})),
    ("campaign", "trials null", job(O2, I2, I2, O2, THETA, {"trials": None})),
)


def load_gen():
    """Import perfbench/gen.py without writing a bytecode cache next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(gen)
    finally:
        sys.dont_write_bytecode = dont_write
    return gen


class Runner:
    """Runs ``cli.main`` in process on documents written to one work directory."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.inp, self.out = work / "in.json", work / "out.json"

    def run(self, argv: list[str], doc: bytes | None = None) -> tuple[int | str, bytes]:
        if doc is not None:
            self.inp.write_bytes(doc)
            argv = argv + ["--input", str(self.inp)]
        self.out.unlink(missing_ok=True)
        try:
            code = self.cli.main(argv + ["--output", str(self.out)])
        except Exception as e:  # a traceback is an outcome to compare, not a reason to stop
            return f"exception:{type(e).__name__}", b""
        return code, self.out.read_bytes()

    def line(self, label: str, argv: list[str], doc: bytes | None = None) -> str:
        code, out = self.run(argv, doc)
        digest = hashlib.sha256(out).hexdigest() if isinstance(code, int) else "-"
        return f"{digest} {code} {label}"


def sweep_sources(gen, pools: dict, seed: int) -> list[tuple[int, int]]:
    """The (n, s) pool trial of each (p, q, k) shape in a simulate_sweep job set."""
    by_shape: dict[tuple, list] = {}
    for n in SWEEP_SIZES:
        for s, entry in enumerate(pools[str(n)]):
            by_shape.setdefault((entry["p"], entry["q"], entry["k"]), []).append((n, s))
    return [
        trials[gen.permutation(len(trials), f"simulate_sweep:{shape}", seed)[0]]
        for shape, trials in sorted(by_shape.items())
    ]


def manifest(cli, work: Path):
    gen = load_gen()
    pools = json.loads((PERFBENCH / "reference.json").read_text())["pools"]
    runner = Runner(cli, work)
    for seed in SWEEP_SEEDS:
        for i, (n, s) in enumerate(sweep_sources(gen, pools, seed)):
            code, out = runner.run(["pipeline"], gen.pipeline_doc(n, s))
            if code != 0:
                yield f"- {code} simulate_sweep:{seed}:{i} pipeline of {gen.trial_id(n, s)}"
                continue
            job = gen.simulate_doc(out, i, SWEEP_TRIALS)
            for flags in SWEEP_FLAGS:
                yield runner.line(f"simulate_sweep:{seed}:{i} {' '.join(flags)}", ["simulate", *flags], job)
    for n in CAMPAIGN_SIZES:
        for seed in CAMPAIGN_SEEDS:
            yield runner.line(f"campaign --n {n} --seed {seed}", ["campaign", "--n", str(n), "--seed", str(seed)])
    for n in POOL_SIZES:
        for s in range(POOL_DOCUMENTS):
            doc = gen.pipeline_doc(n, s)
            for command in INPUT_COMMANDS:
                yield runner.line(f"{command} {gen.trial_id(n, s)}", [command], doc)
            no_theta = json.dumps({key: v for key, v in json.loads(doc).items() if key != "theta"}).encode()
            yield runner.line(f"decompose without theta {gen.trial_id(n, s)}", ["decompose"], no_theta)
    no_g = {"version": "nctorus/1", "n": 2, "theta": THETA}
    for command in INPUT_COMMANDS:
        yield runner.line(f"{command} document without g", [command], json.dumps(no_g).encode())
    for command, label, doc in ERROR_RUNS:
        yield runner.line(f"{command} {label}", [command], doc)


def main() -> int:
    from nctorus import cli

    print(f"output_manifest: nctorus from {Path(cli.__file__).resolve().parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as work:
        for line in manifest(cli, Path(work)):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
