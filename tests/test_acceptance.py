"""Acceptance criteria, one test per criterion, zero numerical tolerance.

Every check is exact: values are compared as canonical cyclotomic
coefficient vectors, never as floats. Each test prints a single
"criterion N ...: PASS/FAIL" line.

Criterion 5 note: the cube relation is checked in its charge-conjugation
corrected form (S~T)^3 = p+ D^2 I (equivalently p+ S~^2 C), which is the
identity these conventions actually satisfy; see the corrected-relation
tests in test_moddata.py for the explicit semion value (2+2i) I.
"""

import random
from fractions import Fraction as F
from operator import add

import oracle
from pointedcat import (
    ModularData,
    canonical_form,
    check_gram,
    classify,
    colored_link_invariant,
    framed_link,
    from_lattice,
    gauss_data,
    root_of_unity,
    serialize,
    parse,
    verlinde_fusion,
)
from pointedcat.cli import main
from pointedcat.cyclo import Cyclotomic
from pointedcat.lattice import discriminant_group, pairing_exponents, quadratic_mod2
from pointedcat.moddata import check_modular_relations, check_unitarity, quantum_dimensions

ONE = Cyclotomic.from_rational(1)


def _report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number} ({description}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_gauss_identity_sweep(corpus4_data):
    failures = [
        gram.entries for gram, md in corpus4_data
        if not gauss_data(md).identity_holds
    ]
    ok = not failures and len(corpus4_data) == 212
    _report(1, f"gauss identity p+p- = D^2 over {len(corpus4_data)} matrices", ok)
    assert ok, failures[:3]


def test_criterion_2_unitarity_and_symmetry_sweep(corpus4_data):
    failures = []
    for gram, md in corpus4_data:
        symmetric = all(
            md.s_tilde[i][j] == md.s_tilde[j][i]
            for i in range(md.rank) for j in range(i + 1, md.rank)
        )
        if not (symmetric and check_unitarity(md)):
            failures.append(gram.entries)
    ok = not failures
    _report(2, f"S~ symmetric and S~ S~* = D^2 I over {len(corpus4_data)} matrices", ok)
    assert ok, failures[:3]


def test_criterion_3_fusion_ring_oracle(corpus4_data):
    failures = []
    for gram, md in corpus4_data:
        if any(d != 1 for d in quantum_dimensions(md)):
            failures.append((gram.entries, "dimension"))
            continue
        tensor = verlinde_fusion(md)
        table = oracle.addition_table(
            oracle.brute_representatives([list(r) for r in gram.entries]))
        good = all(
            tensor[i][j][k] == (1 if table[i][j] == k else 0)
            for i in range(md.rank) for j in range(md.rank) for k in range(md.rank)
        )
        if not good:
            failures.append((gram.entries, "table"))
    ok = not failures
    _report(3, f"fusion tensor equals group addition over {len(corpus4_data)} matrices", ok)
    assert ok, failures[:3]


def test_criterion_4_hopf_link_consistency(corpus3_data):
    hopf = [[0, 1], [1, 0]]
    failures = []
    for gram, md in corpus3_data:
        for i in range(md.rank):
            if colored_link_invariant(md, framed_link([[0]], [i])) != 1:
                failures.append((gram.entries, "unknot"))
            if colored_link_invariant(md, framed_link([[1]], [i])) != md.twists[i]:
                failures.append((gram.entries, "framing"))
            for j in range(md.rank):
                value = colored_link_invariant(md, framed_link(hopf, [i, j]))
                if value != md.s_tilde[i][j]:
                    failures.append((gram.entries, (i, j)))
    ok = not failures and len(corpus3_data) == 56
    _report(4, f"hopf/unknot invariants over {len(corpus3_data)} matrices", ok)
    assert ok, failures[:3]


def test_criterion_5_modular_group_relations(corpus4_data, semion):
    failures = []
    for gram, md in corpus4_data:
        report = check_modular_relations(md)
        if not report.passed:
            failures.append((gram.entries, [c.name for c in report.checks if not c.passed]))
    corrupted = ModularData(rank=2, s_tilde=semion.s_tilde, twists=(ONE, ONE))
    control = check_modular_relations(corrupted)
    negative_ok = any(c.name == "st_cubed" and not c.passed for c in control.checks)
    ok = not failures and negative_ok
    _report(5, "(S~T)^3 = p+ D^2 I, S~^2 = D^2 C, C^2 = I; corrupted control fails", ok)
    assert not failures, failures[:3]
    assert negative_ok


def test_criterion_6_representative_independence(corpus4):
    rng = random.Random(20260810)
    pool = [gram for gram in corpus4 if gram.n <= 2]
    checked = 0
    failures = []
    tables = {}
    while checked < 1000:
        gram = rng.choice(pool)
        if gram not in tables:
            tables[gram] = (discriminant_group(from_lattice(gram).provenance)[1],
                            pairing_exponents(gram))
        reps, (n, s, _) = tables[gram]
        i = rng.choice(range(len(reps)))
        j = rng.choice(range(len(reps)))
        u, w = reps[i], reps[j]
        shift = [rng.randint(-3, 3) for _ in range(gram.n)]
        shifted = tuple(a + n * z for a, z in zip(u, shift))
        q_shifted = quadratic_mod2(gram, shifted, n)
        q_sum = quadratic_mod2(gram, tuple(map(add, shifted, w)), n)
        # polarization: Q(u'+w) - Q(u') - Q(w) = 2 <u', w> (mod 2n)
        if (q_sum - q_shifted - quadratic_mod2(gram, w, n) - 2 * s[i][j]) % (2 * n):
            failures.append((gram.entries, "bilinear"))
        if q_shifted != quadratic_mod2(gram, u, n):
            failures.append((gram.entries, "quadratic"))
        checked += 1
    ok = not failures and checked == 1000
    _report(6, "1000 randomized representative shifts leave both forms unchanged", ok)
    assert ok, failures[:3]


def test_criterion_7_fixtures(semion, toric, z3):
    checks = []
    checks.append(semion.s_tilde[0][0] == 1 and semion.s_tilde[0][1] == 1
                  and semion.s_tilde[1][0] == 1 and semion.s_tilde[1][1] == -1)
    checks.append(tuple(semion.twists) == (ONE, root_of_unity(F(1, 4))))
    checks.append(tuple(toric.twists) == (ONE, ONE, ONE, -ONE))
    checks.append(z3.twists[1] == root_of_unity(F(1, 3)))
    checks.append(z3.twists[2] == root_of_unity(F(1, 3)))
    checks.append(z3.s_tilde[1][1] == root_of_unity(F(2, 3)))
    ok = all(checks)
    _report(7, "semion, toric code and Z/3 fixtures match frozen values", ok)
    assert ok, checks


def test_criterion_8_classification_echo(semion, z3):
    results = []

    chiral = classify([check_gram([[2]]), check_gram([[-2]])])
    results.append(len(dict(chiral)[2]) == 2)

    rank4 = classify([check_gram([[0, 2], [2, 0]]), check_gram([[2, 0], [0, 2]])])
    results.append(len(dict(rank4)[4]) == 2)

    b1 = check_gram([[2]])
    b2 = check_gram([[2, 1], [1, 2]])
    summed = from_lattice(oracle.direct_sum(b1, b2))
    pairs = [(i, j) for i in range(2) for j in range(3)]
    kron_s = tuple(
        tuple(semion.s_tilde[a1][c1] * z3.s_tilde[a2][c2] for (c1, c2) in pairs)
        for (a1, a2) in pairs
    )
    kron_t = tuple(semion.twists[a] * z3.twists[b] for (a, b) in pairs)
    kron = ModularData(rank=6, s_tilde=kron_s, twists=kron_t)
    results.append(canonical_form(summed) == canonical_form(kron))

    ok = all(results)
    _report(8, "2 chiral classes, 2 rank-4 classes, direct sum = kronecker product", ok)
    assert ok, results


def test_criterion_9_cli_round_trip_and_exit_codes(
        tmp_path, capsys, semion, toric, z3, ising, corpus3_data):
    results = []

    # parse(serialize(x)) identity on all fixtures and a corpus slice
    fixtures = [semion, toric, z3, ising] + [md for _, md in corpus3_data[::9]]
    results.append(all(parse(serialize(md)) == md for md in fixtures))

    # exit code 0 on every constructed corpus element, via the real CLI
    mat = tmp_path / "b.mat"
    data = tmp_path / "b.data"
    codes = []
    for gram, _ in corpus3_data[::9]:
        mat.write_text("\n".join(" ".join(str(x) for x in row)
                                 for row in gram.entries) + "\n")
        codes.append(main(["construct", "--b", str(mat), "--out", str(data)]))
        codes.append(main(["verify", "--data", str(data)]))
    capsys.readouterr()
    results.append(all(code == 0 for code in codes))

    # exit code 1 on the corrupted fixture
    corrupt = tmp_path / "corrupt.data"
    corrupt.write_text(
        "kind: modular_data\nrank: 2\ns_tilde: 1, 1; 1, -1\n"
        "twists: e(0/1), e(0/1)\n")
    results.append(main(["verify", "--data", str(corrupt)]) == 1)
    capsys.readouterr()

    # exit code 2 on a parse error
    broken = tmp_path / "broken.data"
    broken.write_text("kind: modular_data\nrank: 2\ns_tilde: 1, 1; 1, -1\n"
                      "twists: e(0/1), e(1/4\n")
    results.append(main(["verify", "--data", str(broken)]) == 2)
    capsys.readouterr()

    # byte-identical output across repeated runs
    semion_mat = tmp_path / "semion.mat"
    semion_mat.write_text("2\n")
    main(["construct", "--b", str(semion_mat)])
    first = capsys.readouterr().out
    main(["construct", "--b", str(semion_mat)])
    second = capsys.readouterr().out
    results.append(first == second and "twists: e(0/1), e(1/4)" in first)

    ok = all(results)
    _report(9, "serialization round-trip, exit codes 0/1/2, byte-stable output", ok)
    assert ok, results
