"""Output stability across commits: `pipeline` documents match recorded digests.

perfbench/reference.json holds the SHA-256 of the input and output document
of every benchmark pool trial.  All 1120 trials (200 of each size n <= 6,
then 60, 36 and 24 of n = 8, 12 and 16, whose larger Smith, alternating and
symplectic reductions fix the bytes of T and R) are replayed through the
command-line entry point; any change to the bytes of a `pipeline` document
fails here.  perfbench/ is only read.

The `simulate` reports of a fixed set of campaign descriptors are pinned by
one digest for every Python version, at 5 trials of 8 samples
(SIMULATE_DIGEST) and at 40 trials of 20 samples (LARGE_SIMULATE_DIGEST).

The documents of the five exact commands (check, act, normalize, decompose,
embed) on the first pool documents hold no floats and are pinned by one
digest for every Python version (EXACT_COMMANDS_DIGEST).  On the same
documents, decompose with or without theta prints the R0, g', shear and
basis change of the `pipeline` document.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from nctorus import cli
from nctorus import documents as docs
from nctorus import embedding as eb
from nctorus import normal_form

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


# Every per-point float sum is a correctly rounded math.fsum, so the `simulate`
# bytes are the same on every Python version.  The library is stdlib-only, so
# the body of simulate_reports_digest needs no test dependency to recompute a
# digest.
SIMULATE_DIGEST = "e35eed536273a42181c8cefb15f29b9b8e2fad8ccc9171eccd8ecdcf681136b5"

# The same 40 runs at 40 trials of 20 samples: 800 points per run.
LARGE_SIMULATE_DIGEST = "a75920ccaca5b13acb746efedbe643d8d59fdad2a956b7ba8ac0823850e3dbc7"


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
    assert simulate_reports_digest(tmp_path, "--trials", "5") == SIMULATE_DIGEST


def test_larger_batch_simulate_reports_match_digest(tmp_path):
    assert simulate_reports_digest(tmp_path, "--trials", "40", "--samples", "20") == LARGE_SIMULATE_DIGEST


# check, act, normalize, decompose and embed on the first 12 pool documents of
# each n in EXACT_SIZES, then decompose on each document without theta, which
# it does not read.  No float is printed, so one digest holds on every Python
# version.
EXACT_COMMANDS = ("check", "act", "normalize", "decompose", "embed")
EXACT_SIZES = (2, 3, 4, 5, 6, 8)
EXACT_COMMANDS_DIGEST = "34d71ff31e3e1213fbfbaff794ba37858309f4e34ac0817100086c793a3d7df2"


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


def counted(monkeypatch, module, name: str) -> list:
    """Count the calls of module.name through every nctorus namespace that binds it."""
    original, calls = getattr(module, name), []

    def wrapper(*args):
        calls.append(1)
        return original(*args)

    for key, mod in list(sys.modules.items()):
        if key.startswith("nctorus") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_decompose_is_the_factorization_of_pipeline(tmp_path, monkeypatch):
    """decompose, with or without theta, prints the R0, g', shear and basis change of the
    pinned pipeline document, and normalizes g exactly once per run."""
    gen = load_gen()
    normalized = counted(monkeypatch, normal_form, "normalize_right")
    detected = counted(monkeypatch, normal_form, "detect_special_form")
    inp, out = tmp_path / "in.json", tmp_path / "out.json"

    def run(command: str, job: bytes) -> dict:
        inp.write_bytes(job)
        assert cli.main([command, "--input", str(inp), "--output", str(out)]) == 0
        return json.loads(out.read_bytes())

    runs = 0
    for n in EXACT_SIZES:
        for s in range(12):
            data = gen.pipeline_doc(n, s)
            full = run("pipeline", data)
            no_theta = gen.dumps({key: v for key, v in json.loads(data).items() if key != "theta"})
            for job in (data, no_theta):
                before = len(normalized), len(detected)
                doc = run("decompose", job)
                assert (len(normalized), len(detected)) == (before[0] + 1, before[1] + 1), gen.trial_id(n, s)
                assert doc["version"] == docs.FACTORIZATION_VERSION
                assert [c["name"] for c in doc["certificates"]] == eb.FACTOR_CERTIFICATE_NAMES
                for key in ("n", "R0", "g_prime", "shear", "basis_change"):
                    assert doc[key] == full[key], (key, gen.trial_id(n, s))
                runs += 1
    assert runs == 144
