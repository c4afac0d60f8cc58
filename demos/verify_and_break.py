"""
Exact verification, and what failure looks like
===============================================

Every defining identity of modular data is checked with zero numerical
tolerance. Constructed data passes all of them; corrupting a single twist
breaks the Gauss identity and the modular-group cube relation while leaving
the matrix perfectly symmetric: symmetry alone proves nothing.
"""

from pointedcat import ModularData, check_gram, from_lattice, root_of_unity, verify_all

semion = from_lattice(check_gram([[2]]))
print("-- constructed semion --")
for check in verify_all(semion).checks:
    print(f"{check.name:<24} {'pass' if check.passed else 'FAIL'}   {check.detail}")

# Same matrix, but the nontrivial twist replaced by 1.
corrupted = ModularData(
    rank=2,
    s_tilde=semion.s_tilde,
    twists=(root_of_unity(0), root_of_unity(0)),
)
print("\n-- corrupted semion (twist set to 1) --")
for check in verify_all(corrupted).checks:
    print(f"{check.name:<24} {'pass' if check.passed else 'FAIL'}   {check.detail}")
