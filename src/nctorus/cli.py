"""Command-line entry point.

``COMMANDS`` declares each subcommand once: its function, the flags it reads
beyond --input (default stdin) and --output (default stdout; a file is
overwritten in place, see ``_write_output``), and the version of its result
and error documents.  decompose factors g alone and reads no theta.  Exit
codes: 0 all certificates pass, 1 a certificate failed, 2 parse error, a flag
the command does not take, a module descriptor out of float range for
simulate, or unwritable --output (its error document goes to stdout), 3
action undefined (act, embed, pipeline and simulate).  ``_run`` maps the
library's exceptions to them: ParseError to 2, Undefined to 3, and
EmbeddingError (with the certificate's name), GroupError and ExactLinalgError
to 1.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import random
import stat
import sys
from collections.abc import Callable
from typing import NamedTuple

from . import documents as docs
from . import exact_linalg as xl
from . import module_sim as ms
from .embedding import EmbeddingError, embed, factor, pipeline
from .normal_form import normalize
from .torus_group import (
    GroupError,
    Undefined,
    act,
    check_membership,
    random_element,
    random_theta,
)

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_PARSE = 2
EXIT_UNDEFINED = 3


def _read_input(path: str | None) -> dict:
    try:
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as e:
        raise docs.ParseError(f"cannot read {path or 'stdin'}: {e}") from None
    return docs.loads(text)


def _require(job: dict, *fields: str) -> None:
    missing = [f for f in fields if f not in job]
    if missing:
        raise docs.ParseError(f"document is missing: {', '.join(missing)}")


def _option(opts, job: dict, name: str, default):
    """A command-line flag, if the command has one, overrides the document's options entry."""
    value = getattr(opts, name, None)
    return value if value is not None else job["options"].get(name, default)


def _element(job: dict):
    _require(job, "g")
    return check_membership(*job["g"])


def _element_and_theta(job: dict):
    """g, checked for membership before theta is required, and theta."""
    g = _element(job)
    _require(job, "theta")
    return g, job["theta"]


# ---------------------------------------------------------------------------
# commands


def cmd_check(job: dict, opts) -> dict:
    g = _element(job)
    return {"n": g.n, "valid": True}


def cmd_act(job: dict, opts) -> dict:
    g, theta = _element_and_theta(job)
    return {"n": g.n, "theta": docs.theta_doc(act(g, theta))}


def cmd_normalize(job: dict, opts) -> dict:
    g = _element(job)
    R0, _, _, sf = normalize(g)
    return {
        "n": g.n,
        "R0": docs.int_matrix_doc(R0),
        "p": sf.p,
        "q": sf.q,
        "Z": docs.rat_matrix_doc(sf.Z),
    }


def cmd_decompose(job: dict, opts) -> dict:
    return docs.factorization_doc(factor(_element(job)))


def cmd_embed(job: dict, opts) -> dict:
    return docs.embedding_doc(pipeline(*_element_and_theta(job)))


def cmd_pipeline(job: dict, opts) -> dict:
    return docs.pipeline_doc(pipeline(*_element_and_theta(job)))


def run_simulation(d: ms.ModuleDescriptor, seed, samples: int, trials: int, tolerance: float) -> dict:
    """Seeded residual sweep over random lattice pairs and sample points.

    The trials are checked in blocks of at most ms.BATCH_POINTS points (one
    trial when the samples alone exceed it).  Each ``ms.Block`` is built once:
    it validates its pairs, repeats the sample batch once per pair and builds
    its six actions, and the three checks each run once on it.

    Raises:
        OverflowError: if a residual is NaN or infinite; a NaN would vanish
            from the max fold, and neither can be compared with the tolerance.
    """
    rng = random.Random(f"simulate:{seed}")
    f = ms.random_gaussian(rng, d)
    sample = ms.random_samples(rng, d, samples)
    per_block = max(1, ms.BATCH_POINTS // samples)
    worst = {"module_relation": 0.0, "left_relation": 0.0, "commutation": 0.0}
    for start in range(0, trials, per_block):
        pairs = [
            (ms.random_lattice_vector(rng, d), ms.random_lattice_vector(rng, d))
            for _ in range(min(per_block, trials - start))
        ]
        block = ms.Block(pairs, sample, d)
        residuals = {
            "module_relation": ms.check_module_relation(block, f),
            "left_relation": ms.check_left_relation(block, f),
            "commutation": ms.check_bimodule_commutation(block, f),
        }
        for name, r in residuals.items():
            if not math.isfinite(r):
                raise OverflowError(f"the {name} residual is {r}")
            worst[name] = max(worst[name], r)
    return {
        "seed": seed,
        "samples": samples,
        "trials": trials,
        "tolerance": tolerance,
        "residuals": {k: float(v) for k, v in worst.items()},
        "passed": all(v < tolerance for v in worst.values()),
    }


def cmd_simulate(job: dict, opts) -> dict:
    if "module_descriptor" in job:
        d = job["module_descriptor"]
    elif "g" not in job:
        raise docs.ParseError("document is missing: module_descriptor, or g and theta")
    else:
        d = pipeline(*_element_and_theta(job)).descriptor
    seed = docs.check_int(_option(opts, job, "seed", 0), "seed", 0)
    samples = docs.check_int(_option(opts, job, "samples", 8), "samples", 1)
    trials = docs.check_int(_option(opts, job, "trials", 100), "trials", 1)
    tol = _option(opts, job, "tolerance", 1e-9)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
        raise docs.ParseError("tolerance must be a positive finite number")
    try:
        report = run_simulation(d, seed, samples, trials, tol)
    except OverflowError:  # a valid descriptor can still shift or pair points past float range, or give a NaN residual
        raise docs.ParseError("module descriptor is out of float range for the simulation") from None
    report["p"], report["q"], report["k"] = d.p, d.q, d.k
    return report


def campaign_trial(n: int, trial_seed: str, word_length: int = 8):
    """One seeded trial: random word, factor it, embed at theta, redrawing theta (20 draws at most) while undefined.

    g is factored once; embed raises Undefined from its first step, the action
    g theta, and nowhere later, so an undefined theta costs one elimination
    and no more.  Trials are independent pure computations keyed by their
    seed string, so callers may evaluate them concurrently; reports stay
    deterministic as long as they are assembled in trial order.
    """
    rng = random.Random(trial_seed)
    g = random_element(f"{trial_seed}:g", rng.randint(1, word_length), n)
    try:
        fac = factor(g)
        for r in range(20):
            theta = random_theta(f"{trial_seed}:theta:{r}", n)
            try:
                res = embed(fac, theta)
            except Undefined:
                continue
            info = {
                "defined": True,
                "passed": res.all_passed(),
                "p": res.special.p,
                "q": res.special.q,
                "k": res.torsion.k,
                "orders": list(res.torsion.nj),
            }
            return info, res
    except EmbeddingError as e:
        return {"defined": True, "passed": False, "failed_certificate": e.name}, None
    return {"defined": False}, None


def run_campaign(n: int, seed, trials: int, word_length: int) -> dict:
    results = []
    for t in range(trials):
        info, _ = campaign_trial(n, f"campaign:{seed}:{t}", word_length)
        info["trial"] = t
        results.append(info)
    defined = [r for r in results if r["defined"]]
    passed = [r for r in defined if r.get("passed")]
    return {
        "n": n,
        "seed": seed,
        "trials": trials,
        "word_length": word_length,
        "defined": len(defined),
        "passed": len(passed),
        "all_passed": len(passed) == len(defined),
        "results": results,
    }


def cmd_campaign(job: dict, opts) -> dict:
    n = opts.n if opts.n is not None else job["n"]
    if n is None:
        raise docs.ParseError("campaign needs n (document field or --n)")
    n = docs.check_int(n, "n", 2)
    seed = docs.check_int(_option(opts, job, "seed", 0), "seed", 0)
    trials = docs.check_int(_option(opts, job, "trials", 10), "trials", 1)
    word_length = docs.check_int(_option(opts, job, "word_length", 8), "word_length", 1)
    return run_campaign(n, seed, trials, word_length)


class Command(NamedTuple):
    """A subcommand: its function, the flags it reads beyond --input/--output, the version of its documents."""

    run: Callable[[dict, argparse.Namespace], dict]
    flags: dict[str, type] = {}
    version: str = docs.FORMAT_VERSION


COMMANDS = {
    "check": Command(cmd_check),
    "act": Command(cmd_act),
    "normalize": Command(cmd_normalize),
    "decompose": Command(cmd_decompose, version=docs.FACTORIZATION_VERSION),
    "embed": Command(cmd_embed),
    "pipeline": Command(cmd_pipeline),
    "simulate": Command(cmd_simulate, {"seed": int, "trials": int, "samples": int, "tolerance": float}),
    "campaign": Command(cmd_campaign, {"seed": int, "trials": int, "n": int}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="exact Morita-equivalence certificates for noncommutative tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", help="input document (default: stdin)")
        p.add_argument("--output", help="output document (default: stdout)")
        for flag, kind in command.flags.items():
            p.add_argument(f"--{flag}", type=kind)
    return parser


def _run(opts, version: str) -> tuple[int, str]:
    """The exit code and the text of the result or error document of one command."""
    try:
        # campaign is the one command that runs without a document
        job = docs.load_job(_read_input(opts.input) if opts.input or opts.command != "campaign" else {})
        result = COMMANDS[opts.command].run(job, opts)
        ok = result.get("all_passed", result.get("passed", True))
        return (EXIT_OK if ok else EXIT_CERTIFICATE), docs.dumps(result, version)
    except docs.ParseError as e:
        return EXIT_PARSE, docs.dumps(docs.error_doc("parse", str(e)), version)
    except Undefined as e:
        return EXIT_UNDEFINED, docs.dumps(docs.error_doc("undefined", str(e)), version)
    except EmbeddingError as e:
        return EXIT_CERTIFICATE, docs.dumps(docs.error_doc("certificate", str(e), name=e.name), version)
    except (GroupError, xl.ExactLinalgError) as e:
        return EXIT_CERTIFICATE, docs.dumps(docs.error_doc("certificate", str(e)), version)


def _write_output(path: str, data: bytes) -> None:
    """Write data over the start of path, creating it, and cut a regular file at its end.

    The file is not truncated on open: overwriting in place and truncating
    after the write is far cheaper on filesystems that start writeback when a
    truncated file is closed.  Devices, FIFOs and ttys are written, not cut.
    The write is not atomic: a failed write can leave a mix of old and new bytes.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def main(argv: list[str] | None = None) -> int:
    opts = build_parser().parse_args(argv)
    version = COMMANDS[opts.command].version
    code, text = _run(opts, version)
    if not opts.output:
        sys.stdout.write(text)
        return code
    try:
        _write_output(opts.output, text.encode("utf-8"))
    except OSError as e:  # the error document cannot go where the output could not
        sys.stdout.write(docs.dumps(docs.error_doc("parse", f"cannot write {opts.output}: {e}"), version))
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
