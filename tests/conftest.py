from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import Phase, settings

from pointedcat import (
    CorpusSpec,
    ModularData,
    check_gram,
    from_lattice,
    generate_gram_matrices,
    root_of_unity,
)
from pointedcat.cyclo import Cyclotomic, sum_values

# Selected by --hypothesis-profile=mutation-audit (tests/mutation_audit.py):
# a mutant is killed by the first failing example, so no time goes into
# shrinking it. Tier-1 runs on the default profile.
settings.register_profile("mutation-audit", phases=[Phase.explicit, Phase.reuse, Phase.generate])


@pytest.fixture
def no_floats(monkeypatch):
    """A call that makes Cyclotomic.approx_complex raise for the rest of the
    test, so that no exact decision can rest on a float estimate."""
    def refuse(self):
        raise AssertionError(f"approx_complex called on {self!r}")

    return lambda: monkeypatch.setattr(Cyclotomic, "approx_complex", refuse)


@pytest.fixture(scope="session")
def semion():
    return from_lattice(check_gram([[2]]))


@pytest.fixture(scope="session")
def anti_semion():
    return from_lattice(check_gram([[-2]]))


@pytest.fixture(scope="session")
def toric():
    return from_lattice(check_gram([[0, 2], [2, 0]]))


@pytest.fixture(scope="session")
def z3():
    return from_lattice(check_gram([[2, 1], [1, 2]]))


@pytest.fixture(scope="session")
def ising():
    """Hand-entered non-pointed data (quantum dimension sqrt(2) on the middle label).

    Exercises the generic verification paths: cyclotomic division, irrational
    dimensions, multi-outcome fusion.
    """
    s2 = root_of_unity(Fraction(1, 8)) + root_of_unity(Fraction(7, 8))
    one = root_of_unity(0)
    rows = (
        (one, s2, one),
        (s2, one - one, -s2),
        (one, -s2, one),
    )
    twists = (one, root_of_unity(Fraction(1, 16)), root_of_unity(Fraction(1, 2)))
    return ModularData(rank=3, s_tilde=rows, twists=twists)


@pytest.fixture(scope="session")
def su2():
    """Function k -> SU(2)_k: S~_ij = [(i+1)(j+1)]_q with q = e(1/(2(k+2))) and
    theta_j = e(j(j+2)/(4(k+2))); generic data of rank k+1."""
    def build(k):
        period = 2 * (k + 2)
        qint = [sum_values(root_of_unity(Fraction(n - 1 - 2 * m, period)) for m in range(n))
                for n in range(period)]
        rows = tuple(tuple(qint[((i + 1) * (j + 1)) % period] for j in range(k + 1))
                     for i in range(k + 1))
        twists = tuple(root_of_unity(Fraction(j * (j + 2), 4 * (k + 2))) for j in range(k + 1))
        return ModularData(rank=k + 1, s_tilde=rows, twists=twists)

    return build


@pytest.fixture(scope="session")
def corpus4():
    """The full acceptance corpus: dim <= 2, |entries| <= 4, 212 matrices."""
    return generate_gram_matrices(CorpusSpec(max_dim=2, max_entry=4))


@pytest.fixture(scope="session")
def corpus4_data(corpus4):
    return [(gram, from_lattice(gram)) for gram in corpus4]


@pytest.fixture(scope="session")
def corpus3_data():
    corpus = generate_gram_matrices(CorpusSpec(max_dim=2, max_entry=3))
    return [(gram, from_lattice(gram)) for gram in corpus]
