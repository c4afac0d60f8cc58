"""
Fusion rules, outcome probabilities, and framed-link invariants
===============================================================

Fusion multiplicities are reconstructed from the Hopf-link matrix and carry
an intrinsic probability distribution over outcomes. For lattice data the
fusion is the group law, so outcomes are deterministic; the hand-entered
Ising data shows a genuine 50/50 split.

Colored framed links are evaluated through the lattice pairing: the Hopf
link reproduces the matrix entries and a +1-framed unknot the twist.
"""

from fractions import Fraction

from pointedcat import (
    ModularData,
    check_gram,
    colored_link_invariant,
    framed_link,
    from_lattice,
    fusion_probabilities,
    root_of_unity,
)
from pointedcat.cyclo import format_value

toric = from_lattice(check_gram([[0, 2], [2, 0]]))
print("toric code fusion (group law, deterministic):")
for i in range(toric.rank):
    for j in range(i, toric.rank):
        outcomes = fusion_probabilities(toric, i, j)
        text = ", ".join(f"{k} with p={p}" for k, p in outcomes)
        print(f"  {i} x {j} -> {text}")

# Ising data entered by hand: quantum dimensions (1, sqrt(2), 1).
sqrt2 = root_of_unity(Fraction(1, 8)) + root_of_unity(Fraction(7, 8))
one = root_of_unity(0)
ising = ModularData(
    rank=3,
    s_tilde=((one, sqrt2, one), (sqrt2, one - one, -sqrt2), (one, -sqrt2, one)),
    twists=(one, root_of_unity(Fraction(1, 16)), root_of_unity(Fraction(1, 2))),
)
print("\nising fusion of the middle label with itself (non-abelian):")
for k, p in fusion_probabilities(ising, 1, 1):
    print(f"  outcome {k} with probability {p}")

print("\nframed links on the toric code:")
hopf = framed_link([[0, 1], [1, 0]], [1, 2])
print("  hopf link colored (1,2):",
      format_value(colored_link_invariant(toric, hopf)),
      "= matrix entry", format_value(toric.s_tilde[1][2]))
curl = framed_link([[1]], [3])
print("  +1 framed unknot colored 3:",
      format_value(colored_link_invariant(toric, curl)),
      "= twist", format_value(toric.twists[3]))
chain = framed_link([[0, 1, 0], [1, 2, 1], [0, 1, 0]], [1, 3, 2])
print("  3-component chain with a framed middle component:",
      format_value(colored_link_invariant(toric, chain)))
