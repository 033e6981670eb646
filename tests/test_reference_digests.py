"""Output stability across commits: `pipeline` documents match recorded digests.

perfbench/reference.json holds the SHA-256 of the input and output document
of every benchmark pool trial.  All 1120 trials (200 of each size n <= 6,
then 60, 36 and 24 of n = 8, 12 and 16, whose larger Smith, alternating and
symplectic reductions fix the bytes of T and R) are replayed through the
command-line entry point; any change to the bytes of a `pipeline` document
fails here.  perfbench/ is only read.

The `simulate` reports of a fixed set of campaign descriptors are pinned by
one digest per Python family, at 5 trials of 8 samples (SIMULATE_DIGEST) and
at 40 trials of 20 samples (LARGE_SIMULATE_DIGEST).

The documents of the five exact commands (check, act, normalize, decompose,
embed) on the first pool documents hold no floats and are pinned by one
digest for every Python version (EXACT_COMMANDS_DIGEST).
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from nctorus import cli
from nctorus import documents as docs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SIZES = [2, 3, 4, 5, 6, 8, 12, 16]


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


@pytest.mark.parametrize("n", SIZES)
def test_pipeline_documents_match_reference(tmp_path, n):
    gen = load_gen()
    pool = json.loads((PERFBENCH / "reference.json").read_text())["pools"][str(n)]
    assert len(pool) == {8: 60, 12: 36, 16: 24}.get(n, 200)
    for s, entry in enumerate(pool):
        data = gen.pipeline_doc(n, s)
        assert hashlib.sha256(data).hexdigest() == entry["in"], gen.trial_id(n, s)
        inp, out = tmp_path / "in.json", tmp_path / "out.json"
        inp.write_bytes(data)
        assert cli.main(["pipeline", "--input", str(inp), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == entry["out"], gen.trial_id(n, s)


# Python 3.12 made the builtin sum() of floats compensated (Neumaier
# summation), which moves the last bits of some residuals; the `simulate`
# bytes therefore differ between 3.10/3.11 and 3.12/3.13, and each family has
# its digest.  The library is stdlib-only, so the body of
# simulate_reports_digest needs no test dependency to recompute a digest.
SIMULATE_DIGEST = {
    False: "57faf4585a0c5f31e3d40b43507424147320c091aa86f7e0b60c3983877ec4f4",  # Python < 3.12
    True: "e35eed536273a42181c8cefb15f29b9b8e2fad8ccc9171eccd8ecdcf681136b5",  # Python >= 3.12
}


# The same 40 runs at 40 trials of 20 samples: 800 points per run.
LARGE_SIMULATE_DIGEST = {
    False: "4100ac98954ff356e50620d8c17594c8dd73018b2cd29ceb0e65af4ddf1130d8",  # Python < 3.12
    True: "a75920ccaca5b13acb746efedbe643d8d59fdad2a956b7ba8ac0823850e3dbc7",  # Python >= 3.12
}


def simulate_reports_digest(tmp_path: Path, *flags: str) -> str:
    """sha256 over the exit codes and `simulate` reports (seed t, the given flags) of campaign:0:t, n = 2..6, t < 8."""
    h = hashlib.sha256()
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    for n in range(2, 7):
        for t in range(8):
            _, res = cli.campaign_trial(n, f"campaign:0:{t}")
            desc = docs.pipeline_doc(res)["module_descriptor"]
            inp.write_text(docs.dumps({"version": docs.FORMAT_VERSION, "module_descriptor": desc}))
            code = cli.main(["simulate", "--input", str(inp), "--output", str(out), "--seed", str(t), *flags])
            h.update(f"{code}\n".encode() + out.read_bytes())
    return h.hexdigest()


def test_simulate_reports_match_digest(tmp_path):
    assert simulate_reports_digest(tmp_path, "--trials", "5") == SIMULATE_DIGEST[sys.version_info >= (3, 12)]


def test_larger_batch_simulate_reports_match_digest(tmp_path):
    digest = simulate_reports_digest(tmp_path, "--trials", "40", "--samples", "20")
    assert digest == LARGE_SIMULATE_DIGEST[sys.version_info >= (3, 12)]


# check, act, normalize, decompose and embed on the first 12 pool documents of
# each n in EXACT_SIZES, then decompose on each document without theta, which
# probes a theta in the domain of g.  No float is printed, so one digest holds
# on every Python version.
EXACT_COMMANDS = ("check", "act", "normalize", "decompose", "embed")
EXACT_SIZES = (2, 3, 4, 5, 6, 8)
EXACT_COMMANDS_DIGEST = "3d3f2ce78c6122c27ba2dc1661e4962c275da0fbf214f9fa02a5d8da8de8814c"


def test_exact_command_documents_match_digest(tmp_path):
    gen = load_gen()
    h = hashlib.sha256()
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    for n in EXACT_SIZES:
        for s in range(12):
            data = gen.pipeline_doc(n, s)
            no_theta = gen.dumps({key: v for key, v in json.loads(data).items() if key != "theta"})
            for command, job in [(c, data) for c in EXACT_COMMANDS] + [("decompose", no_theta)]:
                inp.write_bytes(job)
                code = cli.main([command, "--input", str(inp), "--output", str(out)])
                assert code == 0, (command, gen.trial_id(n, s))
                h.update(f"{code}\n".encode() + out.read_bytes())
    assert h.hexdigest() == EXACT_COMMANDS_DIGEST
