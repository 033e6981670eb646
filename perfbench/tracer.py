"""Spans around the public functions of each nctorus module.

The wrappers live here, outside the library: installing one replaces the
function in every loaded ``nctorus`` module namespace that bound it (for
example ``embedding`` binds ``torus_group.act`` under its own name), so
calls made through any import path are recorded.  Spans are kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction

import numpy as np

# (module, function, aggregates reported for it)
TARGETS = [
    *[
        ("exact_linalg", f, ("calls", "self_ms"))
        for f in (
            "det",
            "rank",
            "rational_inverse",
            "int_inverse",
            "solve_unique",
            "smith_normal_form",
            "alternating_normal_form_int",
            "symplectic_factor_rational",
            "complete_basis",
        )
    ],
    *[
        ("torus_group", f, ("calls", "self_ms"))
        for f in ("check_membership", "compose", "act", "is_defined", "make_theta", "rho", "mu", "invert_element")
    ],
    *[("normal_form", f, ("calls", "self_ms")) for f in ("normalize_right", "detect_special_form", "domain_check")],
    ("embedding", "build_torsion_data", ("self_ms",)),
    ("embedding", "build_T", ("self_ms", "max_bits")),
    ("embedding", "build_S", ("self_ms", "max_bits")),
    ("embedding", "verify_duality", ("self_ms",)),
    ("embedding", "theta_prime", ("self_ms", "max_bits")),
    ("embedding", "build_gprime", ("self_ms", "max_bits")),
    ("embedding", "decompose", ("self_ms", "max_bits")),
    ("embedding", "pipeline", ("self_ms",)),
    *[("documents", f, ("self_ms",)) for f in ("loads", "load_job", "pipeline_doc", "descriptor_from_doc", "dumps")],
    ("cli", "main", ("self_ms",)),
    ("cli", "run_simulation", ("self_ms",)),
    *[
        ("module_sim", f, ("calls", "self_ms"))
        for f in (
            "right_action",
            "left_action",
            "check_module_relation",
            "check_left_relation",
            "check_bimodule_commutation",
        )
    ],
]

ROOT_SPAN = "cli.main"


def max_bits(value) -> int:
    """Largest numerator or denominator bit length in a stage's return value."""
    if isinstance(value, np.ndarray):
        return max((max_bits(x) for x in value.flat), default=0)
    if isinstance(value, (tuple, list)):
        return max((max_bits(x) for x in value), default=0)
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    # EmbeddingMap (.matrix), Theta (.M), GroupElement (.A .. .D)
    parts = [getattr(value, a, None) for a in ("matrix", "M", "A", "B", "C", "D")]
    return max((max_bits(p) for p in parts if isinstance(p, np.ndarray)), default=0)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, job."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1  # the client advances it before each job
        self.pending: list[tuple[str, object]] = []  # stage results awaiting max_bits
        self.bits: dict[str, int] = {}
        self.missing: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, keep_result: bool):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep_result:
                self.pending.append((name, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "nctorus" or k.startswith("nctorus.")]
        for mod, fn, aggs in TARGETS:
            original = getattr(sys.modules[f"nctorus.{mod}"], fn, None)
            if original is None:
                self.missing.add(f"{mod}.{fn}")
                continue
            wrapper = self._wrap(f"{mod}.{fn}", original, "max_bits" in aggs)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def end_job(self) -> None:
        """Measure the coefficient size of the stage results the job produced."""
        for name, result in self.pending:
            self.bits[name] = max(self.bits.get(name, 0), max_bits(result))
        self.pending.clear()

    def summary(self, job_wall_s: list[float]) -> dict[str, float]:
        """Per-job calls and self time for every target, plus unattributed time.

        A span's self time is its duration minus the durations of its direct
        children.  ``trace.unattributed_ms`` is a job's wall time minus the
        self time of every span below the entry point: the time no wrapped
        library function accounts for.
        """
        jobs = len(job_wall_s)
        dur = [s[2] - s[1] for s in self.spans]
        self_s = dur[:]
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                self_s[s[3]] -= d
        calls: dict[str, int] = {}
        total_self: dict[str, float] = {}
        below_root = 0.0
        for s, t in zip(self.spans, self_s):
            calls[s[0]] = calls.get(s[0], 0) + 1
            total_self[s[0]] = total_self.get(s[0], 0.0) + t
            if s[0] != ROOT_SPAN:
                below_root += t
        out = {}
        for mod, fn, aggs in TARGETS:
            name = f"{mod}.{fn}"
            values = {
                "calls": calls.get(name, 0) / jobs,
                "self_ms": 1e3 * total_self.get(name, 0.0) / jobs,
                "max_bits": self.bits.get(name, 0),
            }
            for agg in aggs:
                out[f"{name}.{agg}"] = values[agg]
        out["trace.unattributed_ms"] = 1e3 * (sum(job_wall_s) - below_root) / jobs
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "job"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
