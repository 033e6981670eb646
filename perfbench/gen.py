"""Seeded input documents for the nctorus benchmark.

Pure standard library: the generator never calls nctorus, so input bytes
stay fixed while the library changes underneath.  It replays the random
draws of ``nctorus.cli.campaign_trial`` (random words of length <= 8 in the
rho / mu / flip generators, theta denominators <= 12, theta retried until
g theta is defined), so trial id ``acceptance:<n>:<s>`` yields the same
(g, theta) as the acceptance campaign.  The campaign gives up after 20 theta
draws; here the draws continue with the same seed strings, so every trial
has a defined job.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm

FORMAT_VERSION = "nctorus/1"
WORD_LENGTH = 8
MAX_DEN = 12
THETA_DRAWS = 200


def trial_id(n: int, s: int) -> str:
    return f"acceptance:{n}:{s}"


def _eye(m: int) -> list[list[int]]:
    return [[int(i == j) for j in range(m)] for i in range(m)]


def _matmul(X, Y):
    Yt = list(zip(*Y))
    return [[sum(a * b for a, b in zip(row, col)) for col in Yt] for row in X]


def _blocks(TL, TR, BL, BR):
    return [a + b for a, b in zip(TL, TR)] + [a + b for a, b in zip(BL, BR)]


def _unimodular(rng: random.Random, n: int):
    """Row operations on the identity, with the inverse tracked alongside."""
    R, Rinv = _eye(n), _eye(n)
    for _ in range(rng.randint(2, 4)):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            R[i] = [a + c * b for a, b in zip(R[i], R[j])]
            for row in Rinv:
                row[j] -= c * row[i]
        elif kind == 1:
            R[i], R[j] = R[j], R[i]
            for row in Rinv:
                row[i], row[j] = row[j], row[i]
        else:
            R[i] = [-a for a in R[i]]
            for row in Rinv:
                row[i] = -row[i]
    return R, Rinv


def _generator_step(rng: random.Random, n: int):
    zero = [[0] * n for _ in range(n)]
    kind = rng.randrange(3)
    if kind == 0:
        R, Rinv = _unimodular(rng, n)
        return _blocks(R, zero, zero, [list(col) for col in zip(*Rinv)])
    if kind == 1:
        N = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-3, 3)
                N[i][j], N[j][i] = v, -v
        return _blocks(_eye(n), N, zero, _eye(n))
    support = set(rng.sample(range(1, n + 1), 2 * rng.randint(0, n // 2)))
    on = [[int(i == j and i + 1 in support) for j in range(n)] for i in range(n)]
    off = [[int(i == j and i + 1 not in support) for j in range(n)] for i in range(n)]
    return _blocks(off, on, on, off)


def random_element(seed: str, word_length: int, n: int) -> list[list[int]]:
    """The 2n x 2n matrix of a random word, as nctorus.torus_group draws it."""
    rng = random.Random(seed)
    G = _eye(2 * n)
    for _ in range(word_length):
        G = _matmul(G, _generator_step(rng, n))
    return G


def random_theta(seed: str, n: int) -> list[list[Fraction]]:
    rng = random.Random(seed)
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-MAX_DEN, MAX_DEN), rng.randint(1, MAX_DEN))
            M[i][j], M[j][i] = v, -v
    return M


def _int_det_nonzero(M: list[list[int]]) -> bool:
    """Bareiss fraction-free elimination; True iff det(M) != 0."""
    A = [row[:] for row in M]
    m, prev = len(A), 1
    for k in range(m - 1):
        piv = next((r for r in range(k, m) if A[r][k]), None)
        if piv is None:
            return False
        A[k], A[piv] = A[piv], A[k]
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return A[m - 1][m - 1] != 0


def is_defined(G, theta) -> bool:
    """det(C theta + D) != 0, computed on the integer matrix L (C theta + D)."""
    n = len(theta)
    L = lcm(*(x.denominator for row in theta for x in row))
    C = [row[:n] for row in G[n:]]
    D = [row[n:] for row in G[n:]]
    CT = _matmul(C, theta)
    M = [[int(L * (CT[i][j] + D[i][j])) for j in range(n)] for i in range(n)]
    return _int_det_nonzero(M)


def pipeline_doc(n: int, s: int) -> bytes | None:
    """The `pipeline` input document of one trial, or None if no theta is defined."""
    tid = trial_id(n, s)
    rng = random.Random(tid)
    G = random_element(f"{tid}:g", rng.randint(1, WORD_LENGTH), n)
    for r in range(THETA_DRAWS):
        theta = random_theta(f"{tid}:theta:{r}", n)
        if is_defined(G, theta):
            doc = {
                "version": FORMAT_VERSION,
                "n": n,
                "g": {
                    "A": [row[:n] for row in G[:n]],
                    "B": [row[n:] for row in G[:n]],
                    "C": [row[:n] for row in G[n:]],
                    "D": [row[n:] for row in G[n:]],
                },
                "theta": [[str(x) for x in row] for row in theta],
            }
            return dumps(doc)
    return None


def simulate_doc(pipeline_output: bytes, sim_seed: int, trials: int) -> bytes:
    """A `simulate` job on the module descriptor of a pipeline document."""
    out = json.loads(pipeline_output)
    doc = {
        "version": FORMAT_VERSION,
        "module_descriptor": out["module_descriptor"],
        "options": {"seed": sim_seed, "trials": trials},
    }
    return dumps(doc)


def dumps(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def permutation(size: int, key: str, seed: int) -> list[int]:
    """Seed 0 keeps the identity order; other seeds shuffle it."""
    order = list(range(size))
    if seed != 0:
        random.Random(f"perfbench:{key}:{seed}").shuffle(order)
    return order
