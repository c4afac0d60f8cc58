"""Write the input files of one workload through pointedcat's public API.

    PYTHONPATH=src python3 bench/gen.py WORKLOAD SEED OUTDIR

run.py starts this in a fresh interpreter during set-up; the CLI jobs then
see only the files written here.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import workloads
from pointedcat import ModularData, check_gram, from_lattice, root_of_unity, serialize
from pointedcat.cyclo import sum_values


def relabeled(md: ModularData, sigma: list[int]) -> ModularData:
    """The same data with label i renamed sigma[i]; provenance is dropped."""
    rank = md.rank
    inv = [0] * rank
    for old, new in enumerate(sigma):
        inv[new] = old
    return ModularData(
        rank=rank,
        s_tilde=tuple(tuple(md.s_tilde[inv[i]][inv[j]] for j in range(rank))
                      for i in range(rank)),
        twists=tuple(md.twists[inv[i]] for i in range(rank)),
    )


def with_trivial_twist(md: ModularData, label: int) -> ModularData:
    """Corrupt one twist to e(0/1), keeping everything else (no provenance,
    so the document stays a verification failure rather than a parse error
    once parsing re-checks provenance)."""
    twists = list(md.twists)
    twists[label] = root_of_unity(0)
    return ModularData(rank=md.rank, s_tilde=md.s_tilde, twists=tuple(twists))


def su2(k: int) -> ModularData:
    """SU(2)_k: S~_ij = [(i+1)(j+1)]_q with q = e(1/(2(k+2))), and
    theta_j = e(j(j+2)/(4(k+2)))."""
    period = 2 * (k + 2)  # [n]_q depends only on n mod 2(k+2)
    qint = [sum_values(root_of_unity(Fraction(n - 1 - 2 * m, period)) for m in range(n))
            for n in range(period)]
    rank = k + 1
    s_tilde = tuple(tuple(qint[((i + 1) * (j + 1)) % period] for j in range(rank))
                    for i in range(rank))
    twists = tuple(root_of_unity(Fraction(j * (j + 2), 4 * (k + 2))) for j in range(rank))
    return ModularData(rank=rank, s_tilde=s_tilde, twists=twists)


def write_pointed(seed: int, out: Path) -> None:
    for tag, gram in workloads.pointed_inputs(seed).items():
        (out / f"{tag}.mat").write_text(workloads.format_matrix(gram))
    (out / "hopf.mat").write_text(workloads.format_matrix(workloads.HYPERBOLIC))
    bad = with_trivial_twist(from_lattice(check_gram(workloads.POINTED["r20"])), 1)
    sigma = workloads.pointed_control_relabeling(seed)
    (out / "r20_bad.data").write_text(serialize(relabeled(bad, sigma)).body)


def write_generic(seed: int, out: Path) -> None:
    sigma = workloads.generic_relabelings(seed)
    docs = {f"su2_k{k}": su2(k) for k in workloads.SU2_LEVELS}
    docs["su2_k10_bad"] = with_trivial_twist(docs["su2_k10"], 1)
    docs["su2_k8"] = su2(8)
    for stem, md in docs.items():
        (out / f"{stem}.data").write_text(serialize(relabeled(md, sigma[stem])).body)


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    out.mkdir(parents=True, exist_ok=True)
    if workload == "pointed_verify":
        write_pointed(seed, out)
    elif workload == "generic_verify":
        write_generic(seed, out)
    elif workload != "classify":  # classify has no input files
        raise SystemExit(f"unknown workload {workload!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
