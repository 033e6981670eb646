"""Record the reference digests the benchmark checks outputs against.

    python3 perfbench/make_reference.py

For every trial of every size pool it stores the SHA-256 of the generated
`pipeline` input document and of the output document nctorus writes for it,
with the output's (p, q, k) and torsion orders.  Run it on the commit whose
outputs are the reference; later commits must reproduce them byte for byte.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import gen
import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from nctorus import cli

    run.WORK.mkdir(exist_ok=True)
    inp, out = run.WORK / "reference_in.json", run.WORK / "reference_out.json"
    pools = {}
    for n, size in run.POOL.items():
        t0 = time.perf_counter()
        entries = []
        for s in range(size):
            data = gen.pipeline_doc(n, s)
            if data is None:
                raise SystemExit(f"{gen.trial_id(n, s)}: no defined theta in {gen.THETA_DRAWS} draws")
            inp.write_bytes(data)
            rc = cli.main(["pipeline", "--input", str(inp), "--output", str(out)])
            if rc != 0:
                raise SystemExit(f"{gen.trial_id(n, s)}: exit code {rc}")
            result = out.read_bytes()
            doc = json.loads(result)
            entries.append({
                "in": run.sha256(data),
                "out": run.sha256(result),
                "p": doc["p"],
                "q": doc["q"],
                "k": doc["k"],
                "orders": doc["orders"],
            })
        pools[str(n)] = entries
        print(f"n={n}: {size} trials in {time.perf_counter() - t0:.1f} s", flush=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT, capture_output=True, text=True)
    ref = {"made_at": commit.stdout.strip() or "unknown", "pools": pools}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
