"""Modular data: construction from even lattices, exact verification, fusion,
and colored framed-link invariants.

The central object pairs an unnormalized Hopf-link matrix with a vector of
twists. Everything else (quantum dimensions, global dimension, Gauss sums,
fusion multiplicities, charge conjugation) is derived from those two fields
and checked with exact cyclotomic arithmetic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add

from .cyclo import Cyclotomic, root_of_unity, sum_values
from .errors import NotModular, PointedCatError, ValidationError
from .lattice import DiscriminantGroup, GramMatrix, discriminant_group, pairing_exponents
from .record import record

Label = int  # labels are plain indices; 0 is always the tensor unit


@record
class ModularData:
    """Rank, unnormalized Hopf-link matrix and twist vector.

    Row 0 of the matrix lists the quantum dimensions. Construction checks the
    cheap invariants (shape, symmetry, unit entries, twists are roots of
    unity); nondegeneracy is established by the verification operations.
    Values shared by several checks are computed once per instance.
    """

    rank: int
    s_tilde: tuple[tuple[Cyclotomic, ...], ...]
    twists: tuple[Cyclotomic, ...]
    provenance: GramMatrix | None = None
    label_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.rank < 1 or len(self.s_tilde) != self.rank or len(self.twists) != self.rank:
            raise ValidationError("rank does not match matrix and twist sizes")
        if any(len(row) != self.rank for row in self.s_tilde):
            raise ValidationError("s_tilde is not square")
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                if self.s_tilde[i][j] != self.s_tilde[j][i]:
                    raise ValidationError(f"s_tilde is not symmetric at ({i},{j})")
        if self.s_tilde[0][0] != 1:
            raise ValidationError("s_tilde[0][0] must be 1")
        if self.twists[0] != 1:
            raise ValidationError("twist of the tensor unit must be 1")
        for i, t in enumerate(self.twists):
            if t.root_exponent() is None:
                raise ValidationError(f"twist {i} is not a root of unity")
        if self.label_names is not None and len(self.label_names) != self.rank:
            raise ValidationError("label_names length does not match rank")

    @cached_property
    def _gauss(self) -> GaussData:
        squares = [d * d for d in quantum_dimensions(self)]
        d_squared = sum_values(squares)
        p_plus = sum_values(t * s for t, s in zip(self.twists, squares))
        # twists are roots of unity, so conjugation is inversion
        p_minus = sum_values(t.conjugate() * s for t, s in zip(self.twists, squares))
        identity = (p_plus * p_minus - d_squared).is_zero()
        return GaussData(d_squared, p_plus, p_minus, identity)

    @cached_property
    def _exponents(self) -> _Exponents | None:
        """S~ and T as integer exponents, or None unless row 0 is all 1 and
        every entry and twist is a root of unity."""
        if any(d != 1 for d in self.s_tilde[0]):
            return None
        exponents = []
        for value in itertools.chain(*self.s_tilde, self.twists):
            q = value.root_exponent()
            if q is None:
                return None
            exponents.append(q)
        n = lcm(*(q.denominator for q in exponents))
        ints = [q.numerator * (n // q.denominator) for q in exponents]
        r = self.rank
        s = tuple(tuple(ints[i * r:i * r + r]) for i in range(r))
        return _Exponents(n, s, tuple(ints[r * r:]))

    @cached_property
    def _law(self) -> tuple[tuple[int, ...], ...] | None:
        """The group law of pointed data (_Exponents): law[i][j] = k where
        S~_i S~_j = S~_k entrywise, or None unless there is an exponent table
        and its rows are distinct and closed under that product.

        Row 0 is the unit. Each label g not yet reached is a generator: its
        translation tau_g(x) = g.x is one row lookup per label x, and the
        reached labels h are closed under it by law[h.g] = tau_g o law[h].
        There are at most log2(rank) generators, so this costs rank^2 log(rank)
        integer steps. Every entry is a lookup that succeeded, or a composite
        of such lookups, so a complete table proves closure.
        """
        table = self._exponents
        if table is None:
            return None
        n, s = table.n, table.s
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
    def _packed(self):
        """S~ and conj(S~) as integer coefficient rows at the conductor of S~ (dense.Packed)."""
        return _dense().packed(self)

    @cached_property
    def _duals(self) -> list[int | None]:
        """For each row i, the c with conj(row i) = row c of S~ (packed), or None."""
        index = {row: c for c, row in enumerate(self._packed.s)}
        return [index.get(row) for row in self._packed.conj]

    @cached_property
    def _unitary(self) -> bool:
        return self._law is not None or _dense().unitary(self)


def _dense():
    # imported on first use, so commands on pointed data with a group law never compile it
    from . import dense

    return dense


@record
class _Exponents:
    """Pointed data as integers: S~_ij = e(s[i][j]/n) and theta_a = e(t[a]/n).

    Row 0 is all exponent 0, so every d_a is 1. If the rows are distinct and
    closed under the entrywise product, ModularData._law holds that product,
    k = i.j where S~_i S~_j = S~_k, and since S~ is symmetric (Drinfeld,
    Gelaki, Nikshych and Ostrik, "On braided fusion categories I", 2010):

    - the labels form a group A with unit 0;
    - every row is a distinct character of A, so the rows are orthogonal:
      unitarity holds and D^2 = rank;
    - N_ij^k = delta(k, i.j), and C(i) = i^-1;
    - (S~ T)^3 = p+ D^2 I holds exactly when theta_(i.j) = theta_i theta_j
      S~_ij for all i <= j. If it does, theta_a S~_ka = theta_(k.a) /
      theta_k, so sum_a theta_a S~_ka = p+ conj(theta_k): that is entry
      (i, j) of S~ T S~ = p+ T^-1 conj(S~) T^-1 for k = i.j. Conversely,
      entry (k, 0) of that identity is sum_a theta_a S~_ka = p+ conj(theta_k),
      and entry (i, j) then gives the law on theta unless p+ = 0; but p+ = 0
      would make every Fourier coefficient of theta vanish, so theta = 0.

    So every check is a lookup in the law or rank^2 integer comparisons.
    """

    n: int
    s: tuple[tuple[int, ...], ...]
    t: tuple[int, ...]


def from_lattice(gram: GramMatrix, group: DiscriminantGroup | None = None) -> ModularData:
    """Pointed modular data of an even lattice: rank |det B|, all d_i = 1.

    Entry (i,j) is e(<v_i, v_j> mod 1) and twist i is e((v_i^t B v_i mod 2)/2),
    over the canonical discriminant-group enumeration (group, when given).
    Both forms are computed as integer exponents (lattice.pairing_exponents).
    """
    group = group or discriminant_group(gram)
    n, s, t = pairing_exponents(gram, group)
    roots = [root_of_unity(Fraction(k, n)) for k in range(n)]
    return ModularData(
        rank=group.order,
        s_tilde=tuple(tuple(roots[k] for k in row) for row in s),
        twists=tuple(root_of_unity(Fraction(k, 2 * n)) for k in t),
        provenance=gram,
    )


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


@record
class FusionTensor:
    """Non-negative integer multiplicities, indexed [i][j][k]."""

    multiplicities: tuple[tuple[tuple[int, ...], ...], ...]

    def __getitem__(self, ijk):
        i, j, k = ijk
        return self.multiplicities[i][j][k]


def verlinde_fusion(md: ModularData) -> FusionTensor:
    """Reconstruct fusion multiplicities from the Hopf-link matrix:

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
    units = [tuple(int(k == k0) for k in range(md.rank)) for k0 in range(md.rank)]
    return FusionTensor(tuple(tuple(units[k] for k in row) for row in law))


def fusion_probabilities(
    md: ModularData, ft: FusionTensor, i: Label, j: Label
) -> tuple[tuple[Label, Fraction], ...]:
    """Outcome distribution of fusing i with j: P(k) = N_{i,j}^k d_k / (d_i d_j).

    Normalisation to 1 follows from the dimension identity; a weight that is
    not a non-negative rational raises ValidationError.
    """
    dims = quantum_dimensions(md)
    denom = dims[i] * dims[j]
    if denom.is_zero():
        raise ValidationError("zero quantum dimension in the denominator")
    inv = denom.inverse()
    outcomes = []
    for k in range(md.rank):
        mult = ft[i, j, k]
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

    Raises NotModular unless S~^2 / D^2 is a permutation matrix fixing 0 with
    C^2 = identity. With a group law, C(i) = i^-1; otherwise the rows of S~^2
    come from pointedcat.dense.
    """
    law = md._law
    if law is not None:
        return tuple(row.index(0) for row in law)
    perm = _dense().conjugation(md)
    for i, c in enumerate(perm):
        if c is None:
            raise NotModular(f"row {i} of S~^2 is not D^2 times a unit vector")
    if perm[0] != 0:
        raise NotModular("charge conjugation does not fix the tensor unit")
    if any(perm[perm[i]] != i for i in range(md.rank)):
        raise NotModular("charge conjugation is not an involution")
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

    def failing(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)


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
    for all i <= j, a rank^2 integer check (_Exponents). Other data takes
    the one exact check of pointedcat.dense, S~ T S~ T S~ = p+ D^2 T^-1,
    which needs no unitarity. T[0][0] = 1 and the symmetry of S~ hold for
    every ModularData, whose construction rejects anything else.
    """
    checks = [RelationCheck("twists_unit", True, "twist of the unit is 1"),
              RelationCheck("s_symmetric", True, "S~ = S~^t")]
    try:
        dual_permutation(md)  # raises unless C is a permutation with C^2 = I
        checks.append(RelationCheck(
            "charge_conjugation", True, "S~^2 = D^2 C with C a permutation"))
        checks.append(RelationCheck("conjugation_involution", True, "C^2 = I"))
    except NotModular as exc:
        checks.append(RelationCheck("charge_conjugation", False, str(exc)))
        checks.append(RelationCheck("conjugation_involution", False, "C undefined"))

    law = md._law
    if law is not None:
        table, rank = md._exponents, md.rank
        n, s, t = table.n, table.s, table.t
        cubed_ok = all((t[i] + t[j] + s[i][j] - t[law[i][j]]) % n == 0
                       for i in range(rank) for j in range(i, rank))
    else:
        cubed_ok = _dense().st_cubed(md)
    checks.append(RelationCheck("st_cubed", cubed_ok, "(S~ T)^3 = p+ D^2 I"))

    return RelationReport(tuple(checks))


def verify_all(md: ModularData) -> RelationReport:
    """Gauss identity, unitarity, fusion integrality, then the group relations."""
    checks = [
        RelationCheck("gauss_identity", gauss_data(md).identity_holds, "p+ p- = D^2"),
        RelationCheck("unitarity", check_unitarity(md), "S~ conj(S~)^t = D^2 I"),
    ]
    try:
        verlinde_fusion(md)
        checks.append(RelationCheck(
            "verlinde_integral", True, "all N(i,j)^k are non-negative integers"))
    except PointedCatError as exc:
        checks.append(RelationCheck("verlinde_integral", False, str(exc)))
    return RelationReport(tuple(checks) + check_modular_relations(md).checks)


@record
class FramedLink:
    """Symmetric linking matrix (framings on the diagonal) plus a coloring."""

    linking: tuple[tuple[int, ...], ...]
    colors: tuple[Label, ...]

    def __post_init__(self):
        m = len(self.linking)
        if any(len(row) != m for row in self.linking):
            raise ValidationError("linking matrix is not square")
        for i in range(m):
            for j in range(i + 1, m):
                if self.linking[i][j] != self.linking[j][i]:
                    raise ValidationError("linking matrix is not symmetric")
        if len(self.colors) != m:
            raise ValidationError("need one color per link component")


def framed_link(linking, colors) -> FramedLink:
    return FramedLink(
        tuple(tuple(int(x) for x in row) for row in linking),
        tuple(int(c) for c in colors),
    )


def colored_link_invariant(md: ModularData, link: FramedLink) -> Cyclotomic:
    """Invariant of a colored framed link for lattice-constructed data.

    Framing of component i contributes its twist exponent, each crossing
    pair its Hopf-pairing exponent, summed as integers over the exponent
    table (ModularData._exponents, the lattice's forms over N):

        e( (sum_i L_ii t[c_i]  +  sum_{i<j} L_ij s[c_i][c_j]) / N )

    Unnormalized: the empty link maps to 1, the 0-framed unknot to d_i = 1
    and the Hopf link to the matrix entry.
    """
    if md.provenance is None:
        raise ValidationError("link invariants need lattice-constructed data")
    if any(not 0 <= c < md.rank for c in link.colors):
        raise ValidationError("link color out of range")
    table, colors, linking = md._exponents, link.colors, link.linking
    exponent = 0
    for i, a in enumerate(colors):
        exponent += linking[i][i] * table.t[a]
        for j in range(i + 1, len(colors)):
            exponent += linking[i][j] * table.s[a][colors[j]]
    return root_of_unity(Fraction(exponent, table.n))


def __getattr__(name):
    # canonical_form lives in pointedcat.enumeration with the search it wraps;
    # the name resolves here on first use (bench/traced.py wraps
    # moddata.canonical_form), so commands that never classify compile none of it
    if name == "canonical_form":
        from .enumeration import canonical_form

        return canonical_form
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
