"""Write perfbench/workloads.json: what each workload's inputs look like.

    python3 perfbench/describe.py

For every workload it records why it was chosen, its size mix, and the
(p, q, k) and torsion-order histograms of the trials it draws from, over the
whole pool and over the seed-0 traced job set.  It also records which
end-to-end metric, on which workload, each per-layer metric should move.
Shapes come from reference.json, so this needs no nctorus import.
"""

from __future__ import annotations

import json
from collections import Counter

import run

WHY = {
    "campaign_small": (
        "Acceptance-campaign and everyday `nctorus pipeline` traffic: n in {2..6}, one job per size per "
        "cycle. Matrices are tiny and coefficients a few bits, so per-call overhead (object-array "
        "construction, repeated check_membership, argparse and JSON) is a large share of each job. "
        "One-check-per-fact work shows here, and a fraction-free core must not regress here through "
        "conversion overhead."
    ),
    "campaign_large": (
        "`pipeline` jobs at n in {8, 12, 16}, mixed 5:3:2 per cycle. Coefficients pass 200 bits in "
        "theta'; rational_inverse and det, and object-array matmul inside the embedding stages, take "
        "most of the time. A fraction-free core and Hermite-based reductions show here; per-call "
        "overhead is noise. Runnable by hand only: it is not in BENCHMARK.json because its ops_per_s "
        "did not hold steady across seeds (see README.md)."
    ),
    "simulate_sweep": (
        "`simulate` jobs (8 samples, 5 trials) on module descriptors built during set-up by `pipeline` "
        "from campaign_small trials, one per (p, q, k) shape the campaign pool produces. Nearly all time "
        "is module_sim; documents parses descriptors and writes small reports. It never reaches "
        "exact_linalg or embedding, so exact-core changes predict no change here."
    ),
}

PREDICTIONS = [
    {"layer": "exact_linalg.*.{calls,self_ms}", "moves": "ops_per_s",
     "on": {"campaign_large": "most", "campaign_small": "less", "simulate_sweep": "no change"}},
    {"layer": "torus_group.*.{calls,self_ms}", "moves": "ops_per_s",
     "on": {"campaign_small": "yes (check_membership, det per job)", "campaign_large": "yes (act)",
            "simulate_sweep": "no change"}},
    {"layer": "normal_form.*.{calls,self_ms}", "moves": "ops_per_s",
     "on": {"campaign_small": "yes", "campaign_large": "yes", "simulate_sweep": "no change"}},
    {"layer": "embedding.*.self_ms (object-array matmul lands here)", "moves": "ops_per_s",
     "on": {"campaign_large": "yes", "campaign_small": "less", "simulate_sweep": "no change"}},
    {"layer": "embedding.*.max_bits", "moves": "ops_per_s", "on": {"campaign_large": "yes"}},
    {"layer": "documents.*.self_ms, cli.{main,run_simulation}.self_ms", "moves": "ops_per_s",
     "on": {"campaign_small": "yes", "simulate_sweep": "yes", "campaign_large": "noise"}},
    {"layer": "module_sim.*.{calls,self_ms}", "moves": "ops_per_s",
     "on": {"simulate_sweep": "yes", "campaign_small": "no change", "campaign_large": "no change"}},
    {"layer": "op_ms_p50.n*", "moves": "ops_per_s", "on": {"campaign_small": "n2..n6", "campaign_large": "n8, n12, n16",
                                                          "simulate_sweep": "n2..n6 (descriptor size)"}},
    {"layer": "setup.import_s, setup.generate_s", "moves": "setup_s", "on": {"all": "their sum"}},
    {"layer": "trace.overhead_pct, trace.unattributed_ms, host.calib_ms", "moves": "none",
     "on": {"all": "diagnostics"}},
]


def histograms(entries: list[dict]) -> dict:
    pqk = Counter(f"({e['p']},{e['q']},{e['k']})" for e in entries)
    orders = Counter(str(o) for e in entries for o in e["orders"])
    return {
        "jobs": len(entries),
        "pqk": dict(sorted(pqk.items())),
        "torsion_orders": dict(sorted(orders.items(), key=lambda kv: int(kv[0]))),
    }


def main() -> None:
    ref = run.load_reference()
    out = {"made_from": "reference.json", "workloads": {}, "predictions": PREDICTIONS}
    for name, spec in run.WORKLOADS.items():
        if spec["cmd"] == "simulate":
            picks = [ref[str(n)][s] for n, s in run.simulate_sources(0, ref)]
            sizes = sorted(run.SIM_SOURCE_SIZES)
            pool = [e for n in sizes for e in ref[str(n)]]
            traced = picks
            mix = {"descriptors_per_cycle": len(picks), "trials": run.SIM_TRIALS, "samples": 8}
        else:
            cycle = spec["cycle"]
            sizes = sorted(set(cycle))
            pool = [e for n in sizes for e in ref[str(n)]]
            traced = [ref[str(n)][s] for n, s in run.campaign_trials(name, 0, ref, spec["cycles"])]
            mix = {f"n{n}": cycle.count(n) for n in sizes}
        out["workloads"][name] = {
            "why": WHY[name],
            "cycle": mix,
            "pool": {f"n{n}": run.POOL[n] for n in sizes},
            "pool_histograms": histograms(pool),
            "seed0_traced_histograms": histograms(traced),
        }
    with open(run.HERE / "workloads.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
