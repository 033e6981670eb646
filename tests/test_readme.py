"""The README's examples run as documented."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import nctorus
from nctorus import cli
from nctorus import documents as docs
from nctorus import embedding as eb
from nctorus import exact_linalg as xl

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, language: str) -> str:
    """The first ```language block after the line `heading`."""
    start = README.index(f"\n{heading}\n")
    return re.search(rf"```{language}\n(.*?)```", README[start:], re.S)[1]


def test_library_snippet():
    namespace: dict = {}
    exec(fenced_block("## Library", "python"), namespace)
    res = namespace["res"]
    assert res.theta_out.M == xl.mat([[0, -3], [3, 0]])
    assert res.g_prime.M.shape == (4, 4) and res.all_passed()
    assert res.descriptor.theta_prime == res.theta_out


def test_act_example(tmp_path):
    inp, out = tmp_path / "job.json", tmp_path / "out.json"
    inp.write_text(fenced_block("Input document:", "json"), encoding="utf-8")
    expected = re.search(r"nctorus act --input job\.json +# -> theta' = (\S+)", README)[1]
    assert cli.main(["act", "--input", str(inp), "--output", str(out)]) == 0
    theta = json.loads(out.read_text())["theta"]
    assert docs.parse_rat_matrix(theta) == xl.mat(json.loads(expected))


def test_errors_lists_every_exception_class():
    """The Errors section names exactly the Exception subclasses that nctorus.* defines."""
    section = re.search(r"\n### Errors\n(.*?)(?=\n#|\Z)", README, re.S)[1]
    listed = re.findall(r"^- `(\w+)`", section, re.M)
    modules = [importlib.import_module(f"nctorus.{m.name}") for m in pkgutil.iter_modules(nctorus.__path__)]
    defined = {
        name
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == module.__name__
    }
    assert sorted(listed) == sorted(defined) and len(defined) == 7


def test_certificates_table_is_the_library_table():
    """The Certificates table lists embedding.CERTIFICATES: names in order, steps and the names each follows from."""
    section = re.search(r"\n### Certificates\n(.*?)(?=\n#|\Z)", README, re.S)[1]
    rows = re.findall(r"^\| `(\w+)` \| (\w+) \| .+ \| (.+) \|$", section, re.M)
    listed = [(name, step, tuple(re.findall(r"`(\w+)`", after))) for name, step, after in rows]
    assert listed == list(eb.CERTIFICATES) and len(listed) == 22
