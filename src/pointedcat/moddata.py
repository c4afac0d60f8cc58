"""Modular data: construction from even lattices, exact verification, fusion
and canonical forms.

The central object pairs an unnormalized Hopf-link matrix with a vector of
twists. Everything else (quantum dimensions, global dimension, Gauss sums,
fusion multiplicities, charge conjugation) is derived from those two fields
and checked exactly. Data from a lattice or from a document of root tokens
is held as its integer exponent table (n, s, t) instead, in the form of
lattice.pairing_exponents: S~_ij = e(s[i][j]/n) and theta_a = e(t[a]/2n).
The checks and fusion of pointed data with a group law (_law) and its link
invariants (links) read only the table. values and cyclo are imported on
first use, by the code that builds, reads or prints Cyclotomic values.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from operator import add

from .errors import NotModular, PointedCatError, ValidationError
from .record import record

Label = int  # labels are plain indices; 0 is always the tensor unit


@record
class ModularData:
    """Rank, unnormalized Hopf-link matrix and twist vector.

    Row 0 of the matrix lists the quantum dimensions. Construction checks the
    cheap invariants (check_fields: shape, symmetry, unit entries, twists are
    roots of unity); nondegeneracy is established by the verification
    operations. Values shared by several checks are computed once per
    instance: the Gauss data, the exponent table and group law, and one dense
    cache (_packed).

    An instance made by from_table holds only its exponent table at first;
    s_tilde and twists are built from it as Cyclotomic values, one object per
    distinct value, when first read (__getattr__). Equality, hashing and repr
    read them, so they are those of the same data built from values.
    """

    rank: int
    s_tilde: tuple[tuple[Cyclotomic, ...], ...]
    twists: tuple[Cyclotomic, ...]
    provenance: GramMatrix | None = None
    label_names: tuple[str, ...] | None = None

    def __post_init__(self):
        check_fields(self.rank, self.s_tilde, self.twists, self.label_names, 1)

    def __getattr__(self, name):
        # reached only when normal lookup fails: the values of a table-backed
        # instance before their first access
        table = vars(self).get("_exponents")
        if table is None or name not in ("s_tilde", "twists"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        from .values import table_values

        vars(self).update(table_values(*table))
        return vars(self)[name]

    @cached_property
    def _gauss(self) -> GaussData:
        """D^2 = sum d_a^2 and p+- = sum theta_a^(+-1) d_a^2. Data that holds
        an exponent table (from_table, or _exponents once computed) gives each
        distinct pair (t[a], s[0][a]) once, d^2 times its count, on the roots
        __getattr__ builds: the same values, conductors included, with no
        rank^2 values built. Other data sums its values."""
        from .cyclo import sum_values

        table = vars(self).get("_exponents")
        if table is None:
            squares = [(theta, d * d) for theta, d in zip(self.twists, quantum_dimensions(self))]
        else:
            from collections import Counter
            from fractions import Fraction

            from .cyclo import root_of_unity

            n, s, t = table
            dims = {b: root_of_unity(Fraction(b, n)) for b in set(s[0])}
            squares = [(root_of_unity(Fraction(a, 2 * n)), count * (dims[b] * dims[b]))
                       for (a, b), count in Counter(zip(t, s[0])).items()]
        d_squared = sum_values(d2 for _, d2 in squares)
        p_plus = sum_values(theta * d2 for theta, d2 in squares)
        # twists are roots of unity, so conjugation is inversion
        p_minus = sum_values(theta.conjugate() * d2 for theta, d2 in squares)
        identity = (p_plus * p_minus - d_squared).is_zero()
        return GaussData(d_squared, p_plus, p_minus, identity)

    @cached_property
    def _exponents(self) -> tuple | None:
        """S~ and T as the exponent table (n, s, t), or None unless every
        entry and twist is a root of unity; row 0 may hold any roots (only
        _law reads it). An instance made by from_table holds its table from
        the start."""
        from .values import value_exponents

        return value_exponents(self.s_tilde, self.twists)

    @cached_property
    def _law(self) -> tuple[tuple[int, ...], ...] | None:
        """The group law of pointed data: law[i][j] = k where S~_i S~_j =
        S~_k entrywise, or None unless there is an exponent table whose row 0
        is all exponent 0 (every d_a is 1) and whose rows are distinct and
        closed under that product. This is the one reader of row 0 of a
        table. Since S~ is symmetric (Drinfeld, Gelaki, Nikshych and Ostrik,
        "On braided fusion categories I", 2010):

        - the labels form a group A with unit 0;
        - every row is a distinct character of A, so the rows are orthogonal:
          unitarity holds and D^2 = rank;
        - N_ij^k = delta(k, i.j), and C(i) = i^-1;
        - (S~ T)^3 = p+ D^2 I holds exactly when theta_(i.j) = theta_i
          theta_j S~_ij for all i <= j (_cubed). If it does, theta_a S~_ka =
          theta_(k.a) / theta_k, so sum_a theta_a S~_ka = p+ conj(theta_k):
          that is entry (i, j) of S~ T S~ = p+ T^-1 conj(S~) T^-1 for k = i.j.
          Conversely, entry (k, 0) of that identity is sum_a theta_a S~_ka =
          p+ conj(theta_k), and entry (i, j) then gives the law on theta
          unless p+ = 0; but p+ = 0 would make every Fourier coefficient of
          theta vanish, so theta = 0;
        - if it does, p+ p- = D^2 (verify_all).

        So every check is a lookup in the law or rank^2 integer comparisons.

        Row 0 is the unit. Each label g not yet reached is a generator: its
        translation tau_g(x) = g.x is one row lookup per label x, and the
        reached labels h are closed under it by law[h.g] = tau_g o law[h].
        There are at most log2(rank) generators, so this costs rank^2 log(rank)
        integer steps. Every entry is a lookup that succeeded, or a composite
        of such lookups, so a complete table proves closure.
        """
        table = self._exponents
        if table is None or any(table[1][0]):
            return None
        n, s, _ = table
        index = {row: k for k, row in enumerate(s)}
        if len(index) < self.rank:
            return None
        law = [None] * self.rank
        law[0] = tuple(range(self.rank))
        reached = [0]
        for g, row in enumerate(s):
            if law[g] is not None:
                continue
            tau = [index.get(tuple(map(n.__rmod__, map(add, other, row)))) for other in s]
            if None in tau:
                return None
            frontier = reached
            while frontier:
                new = []
                for h in frontier:
                    k = tau[h]
                    if law[k] is None:
                        law[k] = tuple(map(tau.__getitem__, law[h]))
                        new.append(k)
                reached += new
                frontier = new
        return tuple(law)

    @cached_property
    def _cubed(self) -> bool | None:
        """(S~ T)^3 = p+ D^2 I by the group law: theta_(i.j) = theta_i theta_j
        S~_ij for all i <= j (_law), rank^2 integer comparisons; None without
        a law."""
        law = self._law
        if law is None:
            return None
        n, s, t = self._exponents
        return all((t[i] + t[j] + 2 * s[i][j] - t[law[i][j]]) % (2 * n) == 0
                   for i in range(self.rank) for j in range(i, self.rank))

    @cached_property
    def _packed(self):
        """S~ and conj(S~) as integer coefficient rows at the conductor of S~ (dense.Packed)."""
        return _dense().packed(self)

    @cached_property
    def _unitary(self) -> bool:
        return self._law is not None or _dense().unitary(self)


def _dense():
    # imported on first use, so commands on pointed data with a group law never compile it
    from . import dense

    return dense


def check_fields(rank, rows, twists, label_names, one) -> None:
    """The cheap invariants of modular data, on values (one = 1) or on
    exponents (one = 0): sizes, squareness, symmetry (the first bad (i, j)
    in row-major order), the unit entries, every twist a root of unity (an
    exponent always is) and the label count. Raises ValidationError."""
    if rank < 1 or len(rows) != rank or len(twists) != rank:
        raise ValidationError("rank does not match matrix and twist sizes")
    if any(len(row) != rank for row in rows):
        raise ValidationError("s_tilde is not square")
    for i, (row, column) in enumerate(zip(rows, zip(*rows))):
        if row[i + 1:] != column[i + 1:]:
            j = next(j for j in range(i + 1, rank) if row[j] != column[j])
            raise ValidationError(f"s_tilde is not symmetric at ({i},{j})")
    if rows[0][0] != one:
        raise ValidationError("s_tilde[0][0] must be 1")
    if twists[0] != one:
        raise ValidationError("twist of the tensor unit must be 1")
    if one:
        for i, t in enumerate(twists):
            if t.root_exponent() is None:
                raise ValidationError(f"twist {i} is not a root of unity")
    if label_names is not None and len(label_names) != rank:
        raise ValidationError("label_names length does not match rank")


def exponent_table(rows, twists, roots) -> tuple:
    """The exponent table (n, s, t) of a matrix and a twist vector of keys,
    where roots[key] = (a, b) for the value e(a/b) of that key. n is the least
    integer that every S~ denominator b divides, and every twist denominator
    2n. Keys are token texts (serialization) or object ids (_exponents), so
    each distinct value is converted once."""
    s_keys, t_keys = set().union(*rows), set(twists)
    n = lcm(*(roots[key][1] for key in s_keys),
            *(roots[key][1] // gcd(roots[key][1], 2) for key in t_keys))
    s_of = {key: roots[key][0] * (n // roots[key][1]) for key in s_keys}
    t_of = {key: roots[key][0] * (2 * n // roots[key][1]) for key in t_keys}
    return (n, tuple(tuple(map(s_of.__getitem__, row)) for row in rows),
            tuple(map(t_of.__getitem__, twists)))


def from_table(table: tuple, provenance: GramMatrix | None = None,
               label_names: tuple[str, ...] | None = None) -> ModularData:
    """ModularData that holds only its exponent table (n, s, t), whose fields
    the caller has checked (check_fields); its rank is len(t), and s_tilde and
    twists are built on first read."""
    md = object.__new__(ModularData)
    vars(md).update(rank=len(table[2]), provenance=provenance, label_names=label_names,
                    _exponents=table)
    return md


def from_lattice(gram: GramMatrix) -> ModularData:
    """Pointed modular data of an even lattice: rank |det B|, all d_i = 1.

    Entry (i,j) is e(<v_i, v_j> mod 1) and twist i is e((v_i^t B v_i mod 2)/2),
    over the canonical discriminant-group enumeration. Both forms are computed
    as integer exponents (lattice.pairing_exponents), and that table is the
    data (from_table).
    """
    from .lattice import discriminant_group, pairing_exponents

    return from_table(pairing_exponents(gram, discriminant_group(gram)), provenance=gram)


def canonical_form(md: ModularData) -> bytes:
    """enumeration.canonical_key of md's tokens (values.tokens): two modular
    data are equivalent iff their canonical forms agree. The search is
    imported on first use, so commands that never classify compile none of it."""
    from .enumeration import canonical_key
    from .values import tokens

    return canonical_key(*tokens(md))


def quantum_dimensions(md: ModularData) -> tuple[Cyclotomic, ...]:
    """Unknot invariants d_i: row 0 of the Hopf-link matrix."""
    return md.s_tilde[0]


@record
class GaussData:
    d_squared: Cyclotomic
    p_plus: Cyclotomic
    p_minus: Cyclotomic
    identity_holds: bool


def gauss_data(md: ModularData) -> GaussData:
    """Global dimension D^2 = sum d_i^2, Gauss sums p+- = sum theta_i^{+-1} d_i^2,
    and the exact check p+ * p- == D^2."""
    return md._gauss


def verlinde_fusion(md: ModularData) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Reconstruct fusion multiplicities N[i][j][k] from the Hopf-link matrix:

        N_{i,j}^k = (1/D^2) * sum_a S~_{ia} S~_{ja} conj(S~_{ka}) / d_a

    Every entry must come out a non-negative integer; anything else means the
    input is not modular data and NotModular is raised.

    Pointed data with a group law (ModularData._law, from the rows of its
    exponent table) has N_{i,j}^k = delta(k, i.j): each row is a character of
    the label group, so the sum is (1/D^2) (S~ conj(S~)^t)_{i.j,k}. Anything
    else, including pointed data whose row products are not rows, takes the
    packed-integer sum of pointedcat.dense, on i <= j <= k only when the
    rows of conj(S~) are rows of S~, which raises the exact error.
    """
    law = md._law
    if law is None:
        return _dense().verlinde(md)
    zero = (0,) * md.rank
    units = [zero[:k] + (1,) + zero[k + 1:] for k in range(md.rank)]
    return tuple(tuple(map(units.__getitem__, row)) for row in law)


def fusion_probabilities(
    md: ModularData, ft, i: Label, j: Label
) -> tuple[tuple[Label, Fraction | int], ...]:
    """Outcome distribution of fusing i with j: P(k) = N_{i,j}^k d_k / (d_i d_j),
    with ft[i][j][k] = N_{i,j}^k as verlinde_fusion returns it.

    Normalisation to 1 follows from the dimension identity; a weight that is
    not a non-negative rational raises ValidationError. Pointed data with a
    group law (ModularData._law) has one outcome, i.j, of the int probability
    1 (equal to Fraction(1)); it reads no ft and builds no Cyclotomic value.
    """
    law = md._law
    if law is not None:
        return ((law[i][j], 1),)
    dims = quantum_dimensions(md)
    denom = dims[i] * dims[j]
    if denom.is_zero():
        raise ValidationError("zero quantum dimension in the denominator")
    inv = denom.inverse()
    outcomes = []
    for k in range(md.rank):
        mult = ft[i][j][k]
        if mult == 0:
            continue
        weight = dims[k] * inv * mult
        if not weight.is_rational():
            raise ValidationError(f"weight for outcome {k} is irrational: {weight}")
        w = weight.as_rational()
        if w < 0:
            raise ValidationError(f"weight for outcome {k} is negative: {w}")
        outcomes.append((k, w))
    return tuple(outcomes)


def dual_permutation(md: ModularData) -> tuple[int, ...]:
    """Charge conjugation C with S~^2 = D^2 * C.

    Raises NotModular unless S~^2 / D^2 is a permutation matrix. With a group
    law, C(i) = i^-1; otherwise the rows of S~^2 come from pointedcat.dense.
    Such a C fixes 0 and is an involution: with unitarity, conj(row 0) = row 0
    and conj is an involution on the distinct rows of S~; without it,
    (S~^2)_00 = D^2 != 0 and S~^2 is symmetric.
    """
    law = md._law
    if law is not None:
        return tuple(row.index(0) for row in law)
    perm = _dense().conjugation(md)
    for i, c in enumerate(perm):
        if c is None:
            raise NotModular(f"row {i} of S~^2 is not D^2 times a unit vector")
    return tuple(perm)


def check_unitarity(md: ModularData) -> bool:
    """Exact check of S~ * conj(S~)^t = D^2 * I, computed once per instance:
    a group law implies it, and other data takes the packed check (dense)."""
    return md._unitary


@record
class RelationCheck:
    name: str
    passed: bool
    detail: str = ""


@record
class RelationReport:
    checks: tuple[RelationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_modular_relations(md: ModularData) -> RelationReport:
    """Exact verification of the contract relations behind the projective
    modular-group action:

        (S~ T)^3 = p+ * S~^2 * C = p+ * D^2 * I,
        S~^2 = D^2 * C,   C^2 = I,   T diagonal with T[0][0] = 1.

    The cube relation carries the charge-conjugation factor; without it the
    identity only holds when every label is self-dual. Failures are report
    entries, never exceptions.

    Pointed data with a group law (ModularData._law) has C(i) = i^-1, and
    its cube relation holds exactly when theta_(i.j) = theta_i theta_j S~_ij
    for all i <= j, a rank^2 integer check (ModularData._cubed). Other data takes
    the one exact check of pointedcat.dense, S~ T S~ T S~ = p+ D^2 T^-1,
    which needs no unitarity. T[0][0] = 1 and the symmetry of S~ hold for
    every ModularData, whose construction rejects anything else.
    """
    checks = [RelationCheck("twists_unit", True, "twist of the unit is 1"),
              RelationCheck("s_symmetric", True, "S~ = S~^t")]
    try:
        dual_permutation(md)  # raises unless C is a permutation, which has C^2 = I
        checks.append(RelationCheck(
            "charge_conjugation", True, "S~^2 = D^2 C with C a permutation"))
        checks.append(RelationCheck("conjugation_involution", True, "C^2 = I"))
    except NotModular as exc:
        checks.append(RelationCheck("charge_conjugation", False, str(exc)))
        checks.append(RelationCheck("conjugation_involution", False, "C undefined"))

    cubed_ok = md._cubed
    if cubed_ok is None:
        cubed_ok = _dense().st_cubed(md)
    checks.append(RelationCheck("st_cubed", cubed_ok, "(S~ T)^3 = p+ D^2 I"))

    return RelationReport(tuple(checks))


def verify_all(md: ModularData) -> RelationReport:
    """Gauss identity, unitarity, fusion integrality, then the group relations.

    Pointed data whose group law passes the cube check (ModularData._cubed)
    has p+ p- = D^2 = rank, so no Gauss sum is formed: with d_a = 1, p+ p- =
    sum_(a,b) theta_a conj(theta_b), and reindexing a = b.c gives
    sum_(b,c) theta_(b.c) conj(theta_b) = sum_c theta_c sum_b S~_bc by the
    cube check, where sum_b S~_bc is rank for c = 0 and 0 for every other c,
    whose row is a nontrivial character of the label group; so the sum is
    theta_0 rank = rank = D^2. All other data, such as pointed data that
    fails the cube check, gets the exact Gauss sums (gauss_data).
    """
    checks = [
        RelationCheck("gauss_identity", md._cubed or gauss_data(md).identity_holds,
                      "p+ p- = D^2"),
        RelationCheck("unitarity", check_unitarity(md), "S~ conj(S~)^t = D^2 I"),
    ]
    try:
        verlinde_fusion(md)
        checks.append(RelationCheck(
            "verlinde_integral", True, "all N(i,j)^k are non-negative integers"))
    except PointedCatError as exc:
        checks.append(RelationCheck("verlinde_integral", False, str(exc)))
    return RelationReport(tuple(checks) + check_modular_relations(md).checks)


def colored_link_invariant(md: ModularData, link: FramedLink) -> Cyclotomic:
    """The invariant e(k/m) of links.link_exponent as a Cyclotomic value."""
    from fractions import Fraction

    from .cyclo import root_of_unity
    from .links import link_exponent

    return root_of_unity(Fraction(*link_exponent(md, link)))
