"""Print the sha256 and exit code of every output of a fixed set of nctorus runs.

    PYTHONPATH=src python3 tools/output_manifest.py > tools/output_manifest.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tools/output_manifest.py > other.txt
    diff tools/output_manifest.txt other.txt

Two library versions produce the same output bytes and exit codes on this set
exactly when their manifests are equal.  The expected manifest is committed
next to this script as ``output_manifest.txt``; the tier-1 test
``tests/test_reference_digests.py::test_output_manifest_matches_committed_listing``
runs this script and names every run whose line changed; three more tier-1
tests run the ``descriptor_runs`` and ``pool_runs`` sections in process and
match each run with its committed line.  The run set:

- ``simulate`` on the job sets of the ``simulate_sweep`` benchmark workload for
  seeds 1-3 (``simulate_sources`` of ``perfbench/run.py``), each at
  ``--trials 5``, ``--trials 40`` and ``--trials 40 --samples 20 --seed 9``;
- ``campaign --n N --seed S`` for N = 2..6 and S = 0..2;
- ``simulate --seed t`` on the module descriptor of
  ``cli.campaign_trial(n, "campaign:0:t")`` for n = 2..6 and t < 8, at
  ``--trials 5`` and at ``--trials 40 --samples 20``;
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
``src`` directory of the version to list), and the benchmark's runner, input
generator and reference file are read from this checkout's ``perfbench/``,
without writing a bytecode cache there.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

SWEEP_SEEDS = (1, 2, 3)
SWEEP_FLAGS = (["--trials", "5"], ["--trials", "40"], ["--trials", "40", "--samples", "20", "--seed", "9"])
CAMPAIGN_SIZES = range(2, 7)
CAMPAIGN_SEEDS = range(3)
DESCRIPTOR_TRIALS = range(8)
DESCRIPTOR_FLAGS = (["--trials", "5"], ["--trials", "40", "--samples", "20"])
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


def load_perfbench(name: str):
    """Import perfbench/<name>.py, with perfbench/ on sys.path for its own
    imports, without writing a bytecode cache next to it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write
    return module


# Longer than any listed output (the largest is about 33 KB), so a run that
# leaves any of it behind gets a different digest.
SENTINEL = b"\xff" * 65536


class Runner:
    """Runs ``cli.main`` in process on documents written to one work directory.

    Each run writes its --output over ``SENTINEL``, so every listed run also
    checks that an overwrite leaves exactly the new document.
    """

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.inp, self.out = work / "in.json", work / "out.json"

    def run(self, argv: list[str], doc: bytes | None = None) -> tuple[int | str, bytes]:
        if doc is not None:
            self.inp.write_bytes(doc)
            argv = argv + ["--input", str(self.inp)]
        self.out.write_bytes(SENTINEL)
        try:
            code = self.cli.main(argv + ["--output", str(self.out)])
        except Exception as e:  # a traceback is an outcome to compare, not a reason to stop
            return f"exception:{type(e).__name__}", b""
        return code, self.out.read_bytes()

    def line(self, label: str, argv: list[str], doc: bytes | None = None) -> str:
        code, out = self.run(argv, doc)
        digest = hashlib.sha256(out).hexdigest() if isinstance(code, int) else "-"
        return f"{digest} {code} {label}"


def descriptor_runs(cli, docs):
    """(label, argv, document) of each ``simulate`` run on a campaign_trial descriptor."""
    for n in CAMPAIGN_SIZES:
        for t in DESCRIPTOR_TRIALS:
            trial = f"campaign:0:{t}"
            desc = docs.pipeline_doc(cli.campaign_trial(n, trial)[1])["module_descriptor"]
            job = docs.dumps({"module_descriptor": desc}).encode()
            for flags in DESCRIPTOR_FLAGS:
                label = f"simulate campaign_trial({n}, {trial}) --seed {t} {' '.join(flags)}"
                yield label, ["simulate", "--seed", str(t), *flags], job


def pool_runs(gen):
    """(label, argv, document) of each input command run on the first pool documents."""
    for n in POOL_SIZES:
        for s in range(POOL_DOCUMENTS):
            doc = gen.pipeline_doc(n, s)
            for command in INPUT_COMMANDS:
                yield f"{command} {gen.trial_id(n, s)}", [command], doc
            no_theta = json.dumps({key: v for key, v in json.loads(doc).items() if key != "theta"}).encode()
            yield f"decompose without theta {gen.trial_id(n, s)}", ["decompose"], no_theta


def manifest(cli, docs, work: Path):
    run = load_perfbench("run")
    gen, pools = run.gen, run.load_reference()
    runner = Runner(cli, work)
    for seed in SWEEP_SEEDS:
        for i, (n, s) in enumerate(run.simulate_sources(seed, pools)):
            code, out = runner.run(["pipeline"], gen.pipeline_doc(n, s))
            if code != 0:
                yield f"- {code} simulate_sweep:{seed}:{i} pipeline of {gen.trial_id(n, s)}"
                continue
            job = gen.simulate_doc(out, i, run.SIM_TRIALS)
            for flags in SWEEP_FLAGS:
                yield runner.line(f"simulate_sweep:{seed}:{i} {' '.join(flags)}", ["simulate", *flags], job)
    for n in CAMPAIGN_SIZES:
        for seed in CAMPAIGN_SEEDS:
            yield runner.line(f"campaign --n {n} --seed {seed}", ["campaign", "--n", str(n), "--seed", str(seed)])
    for label, argv, doc in itertools.chain(descriptor_runs(cli, docs), pool_runs(gen)):
        yield runner.line(label, argv, doc)
    no_g = {"version": "nctorus/1", "n": 2, "theta": THETA}
    for command in INPUT_COMMANDS:
        yield runner.line(f"{command} document without g", [command], json.dumps(no_g).encode())
    for command, label, doc in ERROR_RUNS:
        yield runner.line(f"{command} {label}", [command], doc)


def main() -> int:
    from nctorus import cli
    from nctorus import documents as docs

    print(f"output_manifest: nctorus from {Path(cli.__file__).resolve().parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as work:
        for line in manifest(cli, docs, Path(work)):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
