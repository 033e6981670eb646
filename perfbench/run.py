"""nctorus benchmark: closed-loop batch certification, one client, in process.

    python3 perfbench/run.py --workload campaign_small --seed 1 --seconds 20 --trace 0

Each job is an input document handed to the real entry point,
``nctorus.cli.main([cmd, "--input", path, "--output", path])``; the client
sends the next job only when the previous one has returned.  Every output is
checked: a campaign job must reproduce the recorded digest of its output
document byte for byte, a simulate job must report ``passed: true``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of a
timed, untraced phase.  With ``--trace 1`` the same untraced phase is
followed by a traced phase over a fixed job set, and the line carries the
per-layer metrics.  See perfbench/README.md for the workloads and for which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

SETUP_REPS = 7
MIN_ROUNDS = 2
SIM_TRIALS = 5

# A workload's job set is `cycles` repetitions of its size mix `cycle`, each
# slot filled by the seed from one stratum of that size's trial pool (see
# campaign_trials).  The timed phase runs the whole set in rounds and the
# traced phase runs it once.
WORKLOADS = {
    # 20 cycles = 100 jobs, 20 per size from strata of 10 of each 200-trial pool.
    "campaign_small": {"cmd": "pipeline", "cycle": (2, 3, 4, 5, 6), "cycles": 20},
    # 5 : 3 : 2 jobs at n = 8, 12, 16; 2 cycles = 10, 6 and 4 jobs.
    "campaign_large": {"cmd": "pipeline", "cycle": (8, 12, 16, 8, 12, 8, 16, 8, 12, 8), "cycles": 2},
    # One descriptor per (p, q, k) shape of the campaign_small pool.
    "simulate_sweep": {"cmd": "simulate", "cycle": None, "cycles": 1},
}
POOL = {2: 200, 3: 200, 4: 200, 5: 200, 6: 200, 8: 60, 12: 36, 16: 24}
SIM_SOURCE_SIZES = (2, 3, 4, 5, 6)
OP_SIZES = (2, 3, 4, 5, 6, 8, 12, 16)


class SetupError(Exception):
    pass


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["pools"]


# ---------------------------------------------------------------------------
# jobs


class Job:
    """One input document, its size n, and the check its output must pass."""

    def __init__(self, n: int, path: Path, cmd: str, expect: dict):
        self.n, self.path, self.cmd, self.expect = n, path, cmd, expect

    def check(self, rc: int, out: bytes) -> bool:
        if rc != 0:
            return False
        if self.cmd == "pipeline":
            return sha256(out) == self.expect["out"]
        report = json.loads(out)
        return report.get("passed") is True and all(report.get(k) == v for k, v in self.expect.items())


def run_job(cli, job: Job, out_path: Path) -> tuple[int, bytes]:
    """Call the entry point in process; a traceback counts as exit code -1."""
    try:
        rc = cli.main([job.cmd, "--input", str(job.path), "--output", str(out_path)])
    except Exception as e:  # the client keeps going and counts the job failed
        print(f"job {job.path.name}: {type(e).__name__}: {e}", file=sys.stderr)
        return -1, b""
    return rc, out_path.read_bytes()


def campaign_trials(workload: str, seed: int, ref: dict, cycles: int) -> list[tuple[int, int]]:
    """The (n, s) trial of every slot of the job set, in job order.

    The `need` slots of size n take one trial each from `need` equal strata of
    that size's pool sorted by torsion count k (the strongest predictor of a
    job's cost that reference.json records); the seed picks the trial inside
    each stratum and which stratum fills which slot.  So every seed draws from
    the same cost profile, and throughput does not move with the seed.
    """
    cycle = WORKLOADS[workload]["cycle"]
    picks = {}
    for n in sorted(set(cycle)):
        need = cycle.count(n) * cycles
        ranked = sorted(range(POOL[n]), key=lambda s: ref[str(n)][s]["k"])
        width = POOL[n] // need
        strata = [ranked[i * width:(i + 1) * width] for i in range(need)]
        slots = gen.permutation(need, f"{workload}:{n}", seed)
        picks[n] = [
            strata[i][gen.permutation(width, f"{workload}:{n}:{i}", seed)[0]] for i in slots
        ]
    used = {n: 0 for n in picks}
    trials = []
    for _ in range(cycles):
        for n in cycle:
            trials.append((n, picks[n][used[n]]))
            used[n] += 1
    return trials


def _campaign_jobs(workload: str, seed: int, ref: dict, wdir: Path, cycles: int) -> list[Job]:
    jobs = []
    for n, s in campaign_trials(workload, seed, ref, cycles):
        entry = ref[str(n)][s]
        data = gen.pipeline_doc(n, s)
        if data is None or sha256(data) != entry["in"]:
            raise SetupError(f"generated input for {gen.trial_id(n, s)} differs from reference.json")
        path = wdir / f"{len(jobs):04d}.json"
        path.write_bytes(data)
        jobs.append(Job(n, path, "pipeline", entry))
    return jobs


def simulate_sources(seed: int, ref: dict) -> list[tuple[int, int]]:
    """One campaign_small trial (n, s) per (p, q, k) shape its pool produces.

    The seed picks which trial of each shape supplies the descriptor.
    """
    by_shape: dict[tuple, list] = {}
    for n in SIM_SOURCE_SIZES:
        for s, e in enumerate(ref[str(n)]):
            by_shape.setdefault((e["p"], e["q"], e["k"]), []).append((n, s))
    picks = []
    for shape, trials in sorted(by_shape.items()):
        picks.append(trials[gen.permutation(len(trials), f"simulate_sweep:{shape}", seed)[0]])
    return picks


def _simulate_jobs(seed: int, ref: dict, wdir: Path, cli) -> list[Job]:
    jobs = []
    scratch = wdir / "pipeline_out.json"
    for i, (n, s) in enumerate(simulate_sources(seed, ref)):
        entry = ref[str(n)][s]
        src = wdir / "pipeline_in.json"
        src.write_bytes(gen.pipeline_doc(n, s))
        rc, out = run_job(cli, Job(n, src, "pipeline", entry), scratch)
        if rc != 0 or sha256(out) != entry["out"]:
            raise SetupError(f"pipeline output for {gen.trial_id(n, s)} differs from reference.json")
        path = wdir / f"{i:04d}.json"
        path.write_bytes(gen.simulate_doc(out, i, SIM_TRIALS))
        expect = {"p": entry["p"], "q": entry["q"], "k": entry["k"], "samples": 8, "trials": SIM_TRIALS, "seed": i}
        jobs.append(Job(n, path, "simulate", expect))
    return jobs


def build_jobs(workload: str, seed: int, ref: dict, cli, cycles: int | None = None) -> list[Job]:
    """Write the workload's input documents; `cycles` overrides the set size."""
    wdir = WORK / workload
    wdir.mkdir(parents=True, exist_ok=True)
    if WORKLOADS[workload]["cmd"] == "simulate":
        return _simulate_jobs(seed, ref, wdir, cli)
    return _campaign_jobs(workload, seed, ref, wdir, cycles or WORKLOADS[workload]["cycles"])


# ---------------------------------------------------------------------------
# measurement


def calibrate_ms() -> float:
    """A fixed pure-Python Fraction loop; reported beside results, never used to scale them."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 20001):
        total += Fraction(k % 97, k % 11 + 1) * Fraction(3, k % 13 + 1)
    return 1e3 * (time.perf_counter() - t0)


class CpuPicker:
    """Before each timed job, move the process to a CPU a short probe finds fast.

    On a shared virtual machine each CPU is slowed, in bursts of a few to a
    few hundred milliseconds, by another tenant sharing its core; pure-Python
    code then runs up to twice as slow, and the CPUs are slowed independently.
    A pick probes the current CPU and, if it is slow, the others, and stays on
    the first fast one or else on the fastest.  "Fast" is relative to the
    fastest probe of the run.  Only this process's own CPU affinity changes;
    with one usable CPU the picker does nothing.
    """

    PROBED = 4  # CPUs tried per pick, at most
    FAST = 1.4  # a probe within this factor of the fastest seen counts as fast

    def __init__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self.cpus = []
        self.at = 0
        self.best = float("inf")

    @staticmethod
    def probe() -> float:
        t0 = time.perf_counter()
        total = Fraction(0)
        for k in range(1, 101):
            total += Fraction(k % 97, k % 11 + 1)
        return time.perf_counter() - t0

    def pick(self) -> None:
        if len(self.cpus) < 2:
            return
        seen = {}
        for step in range(min(self.PROBED, len(self.cpus))):
            at = (self.at + step) % len(self.cpus)
            os.sched_setaffinity(0, {self.cpus[at]})
            seen[at] = min(self.probe(), self.probe())
            self.best = min(self.best, seen[at])
            if seen[at] <= self.FAST * self.best:
                self.at = at
                return
        self.at = min(seen, key=seen.get)
        os.sched_setaffinity(0, {self.cpus[self.at]})


def time_import() -> float:
    """Seconds to import the entry point in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import nctorus.cli; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise SetupError(f"importing nctorus failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def timed_job(cli, job: Job, tracer=None) -> tuple[float, bool]:
    """Run one job; return its wall time and whether its output checked out."""
    if tracer is not None:
        tracer.job += 1
    t0 = time.perf_counter()
    rc, out = run_job(cli, job, WORK / "out.json")
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_job()
    ok = job.check(rc, out)
    if not ok:
        print(f"job {job.path} failed (exit {rc})", file=sys.stderr)
    return elapsed, ok


def run_rounds(cli, jobs: list[Job], seconds: float, min_rounds: int, picker: CpuPicker, between) -> dict:
    """Run the job set round after round for `seconds`, and at least `min_rounds` rounds.

    Each job's latency is its fastest run: on a shared host other tenants
    only ever add time, so the fastest of many widely spaced runs is the
    steadiest estimate of the job's cost.  The last round may stop part way.
    `between(elapsed)` is called after each full round; its time does not
    count towards `seconds`.
    """
    best = [float("inf")] * len(jobs)
    bad = [False] * len(jobs)
    rounds, attempted, failed = 0, 0, 0
    t_start = time.perf_counter()
    paused = 0.0
    deadline = t_start + seconds
    while rounds < min_rounds or time.perf_counter() < deadline:
        for i, job in enumerate(jobs):
            if rounds >= min_rounds and time.perf_counter() >= deadline:
                break
            picker.pick()
            t, ok = timed_job(cli, job)
            best[i] = min(best[i], t)
            bad[i] |= not ok
            failed += not ok
            attempted += 1
        else:
            rounds += 1
            t_pause = time.perf_counter()
            between(t_pause - t_start - paused)
            paused += time.perf_counter() - t_pause
            deadline = t_start + seconds + paused
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "elapsed": time.perf_counter() - t_start - paused,
        "ops_per_s": (len(jobs) - sum(bad)) / sum(best),
        "latency": best,
        "sizes": [job.n for job in jobs],
    }


def traced_phase(cli, jobs: list[Job], picker: CpuPicker):
    """Run every job untraced and traced back to back, alternating which goes first.

    Pairing each job with itself keeps host drift out of the overhead figure.
    """
    from tracer import Tracer

    tracer = Tracer()
    plain_s, traced_s, failed = [], [], 0
    for i, job in enumerate(jobs):
        picker.pick()
        for traced in (i % 2 == 0, i % 2 == 1):
            if traced:
                tracer.install()
            try:
                t, ok = timed_job(cli, job, tracer if traced else None)
            finally:
                tracer.uninstall()
            (traced_s if traced else plain_s).append(t)
            failed += not ok
    for name in sorted(tracer.missing):
        print(f"perfbench: nctorus.{name} not found; its metrics read 0", file=sys.stderr)
    layer = tracer.summary(traced_s)
    layer["trace.overhead_pct"] = 100.0 * (sum(traced_s) / sum(plain_s) - 1.0)
    return tracer, layer, 2 * len(jobs), failed


def op_ms_p50(phase: dict) -> dict[str, float]:
    """Median job latency per size n; 0 where the workload has no job of that size."""
    out = {}
    for n in OP_SIZES:
        lat = [t for t, m in zip(phase["latency"], phase["sizes"]) if m == n]
        out[f"op_ms_p50.n{n}"] = 1e3 * statistics.median(lat) if lat else 0.0
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".max_bits")):
        return "count"
    if name.startswith("setup."):
        return "s"
    return "%" if name == "trace.overhead_pct" else "ms"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="one cycle, one round and one set-up pass")
    args = ap.parse_args(argv)
    if not (SRC / "nctorus" / "cli.py").is_file():
        print(f"perfbench: no nctorus sources under {SRC}", file=sys.stderr)
        return 2
    reps = 1 if args.smoke else SETUP_REPS
    calib = [calibrate_ms()]
    picker = CpuPicker()

    def timed_import() -> None:
        picker.pick()
        import_times.append(time_import())

    import_times: list[float] = []
    timed_import()
    sys.path.insert(0, str(SRC))
    from nctorus import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported nctorus from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ref = load_reference()

    cycles = 1 if args.smoke else None

    def generate() -> list[Job]:
        picker.pick()
        t0 = time.perf_counter()
        jobs = build_jobs(args.workload, args.seed, ref, cli, cycles)
        gen_times.append(time.perf_counter() - t0)
        return jobs

    def between_rounds(elapsed: float) -> None:
        # The set-up passes are spread over the timed phase, so their median
        # samples the host across the whole run.
        if len(gen_times) < reps and elapsed >= len(gen_times) * args.seconds / reps:
            timed_import()
            generate()

    gen_times: list[float] = []
    jobs = generate()
    run_job(cli, jobs[0], WORK / "out.json")  # warm-up, untimed
    timed = run_rounds(
        cli, jobs, 0 if args.smoke else args.seconds, 1 if args.smoke else MIN_ROUNDS, picker, between_rounds
    )
    attempted, failed = timed["attempted"], timed["failed"]
    while len(gen_times) < reps:
        timed_import()
        generate()
    import_s, generate_s = statistics.median(import_times), statistics.median(gen_times)

    if args.trace:
        tracer, layer, t_attempted, t_failed = traced_phase(cli, jobs, picker)
        attempted += t_attempted
        failed += t_failed
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.json")
        calib.append(calibrate_ms())
        layer.update(op_ms_p50(timed))
        layer["setup.import_s"] = import_s
        layer["setup.generate_s"] = generate_s
        layer["host.calib_ms"] = statistics.median(calib)
        metrics = {name: metric(v, layer_unit(name)) for name, v in layer.items()}
    else:
        calib.append(calibrate_ms())
        metrics = {
            "ops_per_s": metric(timed["ops_per_s"], "1/s"),
            "setup_s": metric(import_s + generate_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(
        f"perfbench {args.workload} seed={args.seed}: {timed['rounds']} full rounds of {len(jobs)} jobs in "
        f"{timed['elapsed']:.2f} s ({timed['attempted']} jobs), "
        f"host.calib_ms before={calib[0]:.2f} after={calib[-1]:.2f}"
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (SetupError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
