"""Workload definitions shared by the harness (run.py) and the input generator
(gen.py). Pure standard library: the harness process never imports pointedcat.

Every random choice is drawn from ``random.Random(f"{workload}:{seed}")``, so
one seed always gives the same inputs and the same job list.
"""

from __future__ import annotations

import itertools
import math
import random

WORKLOADS = ("pointed_verify", "generic_verify", "classify")

# Gram matrices of the pointed_verify workload, tagged by rank |det B|.
POINTED = {
    "r8": [[8]],
    "r16": [[4, 0], [0, 4]],
    "r17": [[2, 1], [1, -8]],
    "r20": [[4, 2], [2, -4]],
    "r26": [[26]],
    "r27": [[6, 3], [3, 6]],
    "r32": [[4, 4], [4, -4]],
}
HYPERBOLIC = [[0, 1], [1, 0]]

# Levels k of the SU(2)_k documents verified by generic_verify (rank k+1).
SU2_LEVELS = (2, 3, 6, 10, 12, 16)

# enumerate bounds: the deep job is dominated by canonical_form, the wide job
# by from_lattice and the lattice layer. --max-rank is always explicit so that
# a change of the CLI default cannot change the input.
ENUMERATE = {
    "deep": {"max_dim": 2, "max_entry": 8, "max_rank": 8},
    "wide": {"max_dim": 3, "max_entry": 3, "max_rank": 4},
}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def direct_sum(a, b):
    n, m = len(a), len(b)
    out = [[0] * (n + m) for _ in range(n + m)]
    for i in range(n):
        out[i][:n] = a[i]
    for i in range(m):
        out[n + i][n:] = b[i]
    return out


def unimodular(rng: random.Random, n: int, steps: int = 3):
    """A random integer matrix of determinant +-1: a signed permutation times
    a few elementary column operations with multipliers +-1."""
    perm = list(range(n))
    rng.shuffle(perm)
    u = [[(rng.choice((1, -1)) if perm[i] == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        for row in u:
            row[j] += c * row[i]
    return u


def seeded_gram(b, rng: random.Random):
    """U^t B U for a seeded unimodular U; a 1x1 B is first summed with the
    hyperbolic plane. Both steps keep the discriminant form, hence the rank,
    the theory and the cost of every command."""
    if len(b) == 1:
        b = direct_sum(b, HYPERBOLIC)
    u = unimodular(rng, len(b))
    return _matmul(_matmul(_transpose(u), b), u)


def relabeling(rng: random.Random, rank: int) -> list[int]:
    """A seeded permutation of labels that fixes the tensor unit 0."""
    tail = list(range(1, rank))
    rng.shuffle(tail)
    return [0] + tail


def generic_relabelings(seed: int) -> dict[str, list[int]]:
    """The relabeling of every generic document, keyed by file stem."""
    rng = rng_for("generic_verify", seed)
    stems = [f"su2_k{k}" for k in SU2_LEVELS] + ["su2_k10_bad", "su2_k8"]
    ranks = [k + 1 for k in SU2_LEVELS] + [11, 9]
    return {stem: relabeling(rng, rank) for stem, rank in zip(stems, ranks)}


def pointed_inputs(seed: int) -> dict[str, list[list[int]]]:
    """Seeded Gram matrices keyed by tag."""
    rng = rng_for("pointed_verify", seed)
    return {tag: seeded_gram(b, rng) for tag, b in POINTED.items()}


def pointed_control_relabeling(seed: int) -> list[int]:
    return relabeling(rng_for("pointed_verify-control", seed), 20)


def determinant(rows) -> int:
    """Exact determinant by cofactor expansion (the matrices here are at most 3x3)."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * determinant([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def parse_matrix(text: str):
    return [[int(x) for x in line.split()] for line in text.splitlines() if line.strip()]


def enumerate_work(max_dim: int, max_entry: int, max_rank: int) -> dict:
    """Counts for one enumerate job, computed independently of pointedcat:
    candidate matrices, matrices kept (nonsingular, |det| <= max_rank), and
    the relabelings canonical_form tries, sum over kept matrices of (rank-1)!."""
    candidates = kept = perms = 0
    even = max_entry - max_entry % 2
    for n in range(1, max_dim + 1):
        positions = [(i, j) for i in range(n) for j in range(i, n)]
        ranges = [range(-even, even + 1, 2) if i == j else range(-max_entry, max_entry + 1)
                  for i, j in positions]
        for combo in itertools.product(*ranges):
            candidates += 1
            rows = [[0] * n for _ in range(n)]
            for (i, j), value in zip(positions, combo):
                rows[i][j] = rows[j][i] = value
            rank = abs(determinant(rows))
            if 0 < rank <= max_rank:
                kept += 1
                perms += math.factorial(rank - 1)
    return {"candidates": candidates, "matrices": kept, "perms": perms}


def format_matrix(rows) -> str:
    return "".join(" ".join(str(x) for x in row) + "\n" for row in rows)


def _job(job_id, argv, check, **extra):
    return {"id": job_id, "cmd": argv[0], "argv": argv, "check": check, **extra}


def jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one pass, in run order.

    ``check`` names how run.py judges the output; ``expect`` keys into
    expected.json, which holds the seed-independent output recorded at the
    commit that introduced this benchmark.
    """
    if workload == "pointed_verify":
        out = []
        for tag in POINTED:
            mat, data = f"{tag}.mat", f"{tag}.data"
            out.append(_job(f"construct.{tag}", ["construct", "--b", mat, "--out", data],
                            {"kind": "construct", "mat": mat, "data": data}))
            out.append(_job(f"verify.{tag}", ["verify", "--data", data],
                            {"kind": "stdout", "expect": "report.pass"}))
            out.append(_job(f"show.{tag}", ["show", "--data", data],
                            {"kind": "show", "expect": f"show.pointed.{tag}"}))
            out.append(_job(f"link.{tag}", ["link", "--data", data, "--linking", "hopf.mat",
                                            "--colors", "1,2"],
                            {"kind": "link", "data": data}))
        out.append(_job("fusion.r16", ["fusion", "--data", "r16.data", "--i", "1", "--j", "2"],
                        {"kind": "fusion_pointed"}))
        out.append(_job("verify.r20_bad", ["verify", "--data", "r20_bad.data"],
                        {"kind": "stdout", "exit": 1, "expect": "report.r20_bad"}))
        return out
    if workload == "generic_verify":
        sigma = generic_relabelings(seed)
        out = []
        for k in SU2_LEVELS:
            data = f"su2_k{k}.data"
            out.append(_job(f"verify.k{k}", ["verify", "--data", data],
                            {"kind": "stdout", "expect": "report.pass"}))
            out.append(_job(f"show.k{k}", ["show", "--data", data],
                            {"kind": "show", "expect": f"show.su2.k{k}"}))
        s2, s8 = sigma["su2_k2"], sigma["su2_k8"]
        out.append(_job("fusion.k2", ["fusion", "--data", "su2_k2.data",
                                      "--i", str(s2[1]), "--j", str(s2[1])],
                        {"kind": "fusion_generic", "sigma": s2,
                         "outcomes": {"0": "1/2", "2": "1/2"}}))
        out.append(_job("verify.k10_bad", ["verify", "--data", "su2_k10_bad.data"],
                        {"kind": "stdout", "exit": 1, "expect": "report.k10_bad"}))
        out.append(_job("fusion.k8_irrational", ["fusion", "--data", "su2_k8.data",
                                                 "--i", str(s8[2]), "--j", str(s8[3])],
                        {"kind": "stderr", "exit": 2, "contains": "is irrational"}))
        return out
    if workload == "classify":
        out = []
        for name, b in ENUMERATE.items():
            argv = ["enumerate", "--max-dim", str(b["max_dim"]), "--max-entry",
                    str(b["max_entry"]), "--max-rank", str(b["max_rank"])]
            out.append(_job(f"enumerate.{name}", argv,
                            {"kind": "stdout", "expect": f"enumerate.{name}"}, bounds=b))
        rng_for(workload, seed).shuffle(out)
        return out
    raise ValueError(f"unknown workload {workload!r}")
