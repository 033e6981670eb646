"""Output stability across commits: `pipeline` documents match recorded digests.

perfbench/reference.json holds the SHA-256 of the input and output document
of every benchmark pool trial.  All 1120 trials (200 of each size n <= 6,
then 60, 36 and 24 of n = 8, 12 and 16, whose larger Smith, alternating and
symplectic reductions fix the bytes of T and R) are replayed through the
command-line entry point; any change to the bytes of a `pipeline` document
fails here.  perfbench/ is only read.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from nctorus import cli

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
