"""Output stability across commits: output bytes and exit codes match the committed pins.

perfbench/reference.json holds the SHA-256 of the input and output document
of every benchmark pool trial.  All 1120 trials (200 of each size n <= 6,
then 60, 36 and 24 of n = 8, 12 and 16, whose larger Smith, alternating and
symplectic reductions fix the bytes of T and R) are replayed through the
command-line entry point; any change to the bytes of a `pipeline` document
fails here.  perfbench/ is only read.

tools/output_manifest.txt lists the digest and exit code of every output of
the fixed run set of tools/output_manifest.py: `simulate` and `campaign`
reports, the input commands on the first pool documents, and error
documents.  The script is run in a fresh interpreter on this checkout's src
and its listing must equal the committed one on every Python version; a
failure names each run whose line changed, appeared or vanished.  After an
intended output change, regenerate the listing with

    PYTHONPATH=src python3 tools/output_manifest.py > tools/output_manifest.txt

Three tests run parts of that set in process and match each output's digest
and exit code with its committed line: the `simulate` reports of the
campaign_trial descriptors at 5 trials of 8 samples and at 40 trials of 20
samples, and the documents of the five exact commands (check, act, normalize,
decompose, embed), which print no float, on the first pool documents.  On the
same documents, decompose with or without theta prints the R0, g', shear and
basis change of the `pipeline` document.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nctorus import cli
from nctorus import documents as docs
from nctorus import embedding as eb
from nctorus import normal_form

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tools" / "output_manifest.py"
SIZES = [2, 3, 4, 5, 6, 8, 12, 16]

_spec = importlib.util.spec_from_file_location("output_manifest", MANIFEST)
output_manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_manifest)
gen = output_manifest.load_perfbench("gen")


@pytest.mark.parametrize("n", SIZES)
def test_pipeline_documents_match_reference(tmp_path, n):
    pool = json.loads((output_manifest.PERFBENCH / "reference.json").read_text())["pools"][str(n)]
    assert len(pool) == {8: 60, 12: 36, 16: 24}.get(n, 200)
    for s, entry in enumerate(pool):
        data = gen.pipeline_doc(n, s)
        assert hashlib.sha256(data).hexdigest() == entry["in"], gen.trial_id(n, s)
        inp, out = tmp_path / "in.json", tmp_path / "out.json"
        inp.write_bytes(data)
        assert cli.main(["pipeline", "--input", str(inp), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == entry["out"], gen.trial_id(n, s)


def labelled(listing: str) -> dict[str, str]:
    """Each manifest line keyed by its run label, the text after the digest and exit code."""
    return {line.split(" ", 2)[2]: line for line in listing.splitlines()}


def test_output_manifest_matches_committed_listing():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(MANIFEST)], capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert f"nctorus from {ROOT / 'src' / 'nctorus'}" in proc.stderr
    listing, committed = proc.stdout, MANIFEST.with_suffix(".txt").read_text()
    exceptions = [line for line in listing.splitlines() if line.startswith("- exception")]
    assert not exceptions, "runs that end in an exception:\n" + "\n".join(exceptions)
    new, old = labelled(listing), labelled(committed)
    changed = [label for label in old if label in new and new[label] != old[label]]
    appeared = [label for label in new if label not in old]
    vanished = [label for label in old if label not in new]
    assert listing == committed, f"changed: {changed}\nappeared: {appeared}\nvanished: {vanished}"


def assert_listed(tmp_path, runs: list) -> None:
    """Each (label, argv, document) run prints the digest and exit code of its committed line."""
    committed = labelled(MANIFEST.with_suffix(".txt").read_text())
    runner = output_manifest.Runner(cli, tmp_path)
    changed = [label for label, argv, doc in runs if runner.line(label, argv, doc) != committed.get(label)]
    assert not changed, f"changed: {changed}"


def descriptor_runs(*flags: str) -> list:
    """The `simulate` runs, with the given flags, on the campaign_trial descriptors n = 2..6, t < 8."""
    runs = [run for run in output_manifest.descriptor_runs(cli, docs) if run[1][3:] == list(flags)]
    assert len(runs) == 40
    return runs


def test_simulate_reports_match_digest(tmp_path):
    assert_listed(tmp_path, descriptor_runs("--trials", "5"))


def test_larger_batch_simulate_reports_match_digest(tmp_path):
    assert_listed(tmp_path, descriptor_runs("--trials", "40", "--samples", "20"))


# check, act, normalize, decompose and embed on the first 12 pool documents of
# each n in EXACT_SIZES, then decompose on each document without theta, which
# it does not read.
EXACT_COMMANDS = ("check", "act", "normalize", "decompose", "embed")
EXACT_SIZES = (2, 3, 4, 5, 6, 8)


def test_exact_command_documents_match_digest(tmp_path):
    runs = [run for run in output_manifest.pool_runs(gen) if run[1][0] in EXACT_COMMANDS]
    assert len(runs) == len(EXACT_SIZES) * 12 * 6
    assert output_manifest.POOL_SIZES == EXACT_SIZES
    committed = labelled(MANIFEST.with_suffix(".txt").read_text())
    assert all(committed[label].split(" ")[1] == "0" for label, _, _ in runs)
    assert_listed(tmp_path, runs)


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
