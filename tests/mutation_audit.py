"""Mutation audit of the document parse, the table checks it relies on, the
Gauss data, fusion probabilities and link invariants, the dense checks, the
CLI's exit, cyclotomic arithmetic, its integer core and a table's Gauss sums
on it, the lattice algebra and the enumeration.

    python tests/mutation_audit.py

Copies the repository to a temporary directory and, for each mutant below,
applies one text replacement that must match exactly once, then runs Tier-1
with -x on the copy: the test files FIRST names for the mutated module first,
and the other test files if they pass, so each file runs at most once. A
mutant is killed when a test fails.
Hypothesis runs on the mutation-audit profile of tests/conftest.py, which
does not shrink a failing example: the first one kills the mutant. A
mutant that survives must carry a one-line argument that it is equivalent to
the code; the script exits 1 if any other mutant survives, or if the
unmutated copy fails. It prints one line per mutant, the kill count and the
time the mutants took. pytest does not collect this file (its name does not
start with test_).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the test files run first against a mutant of each module
FIRST = {"serialization": ("test_serialization.py",),
         "moddata": ("test_serialization.py", "test_moddata.py", "test_links.py"),
         "values": ("test_serialization.py", "test_moddata.py"), "links": ("test_links.py",),
         "dense": ("test_kernel.py", "test_cyclo.py"), "cli": ("test_cli.py",),
         "show": ("test_cli.py",),
         "cyclo": ("test_cyclo.py",), "cyclo_core": ("test_cyclo.py", "test_moddata.py"),
         "gauss": ("test_moddata.py", "test_cli.py"),
         "lattice": ("test_lattice.py",), "enumeration": ("test_enumeration.py",)}

# (module of src/pointedcat, text, replacement, equivalence argument or None)
MUTANTS = [
    # serialization.parse and its helpers
    ("serialization", "if md._exponents != implied:", "if False:", None),
    ("serialization", "    check_conductor(x.conductor if", "    list(x.conductor if", None),
    ("serialization", "x[1] if x[1] > 2 else 1", "x[1]", None),
    ("moddata", "if table is None or any(table[1][0]):", "if table is None:", None),
    ("serialization", "        check_fields(rank, table[1], table[2], labels, 0)\n", "", None),
    ("serialization", "and 0 <= a < b", "and 0 <= a and b", None),
    ("serialization", " and gcd(a, b) == 1", "", None),
    ("serialization", 'token == f"e({a}/{b})" and ', "", None),
    ("serialization", "        return 1, 2\n", "        return 1, 1\n", None),
    ("serialization", "if abs(gram.determinant) != rank:", "if False:", None),
    # the rank bound of a provenance lattice, checked before its table is formed
    ("serialization", "        check_rank_bound(gram)\n    if all", "    if all", None),
    ("lattice", "    check_rank_bound(gram)\n    v, diag", "    v, diag", None),
    ("values", "        if token != implied:", "        if False:", None),
    ("values", "if row[j] != implied_row[j]:", "if False:", None),
    ("values", "for j in range(i, len(row)):", "for j in range(i + 1, len(row)):", None),
    ("serialization", "if chunk == token)", "if chunk)", None),
    ("serialization", "if chunk in chunks:\n                    continue\n", "pass\n", None),
    ("serialization", "if isinstance(x, tuple) else x\n", "if 1 else x\n", None),
    ("serialization", '"twists", "provenance"):\n', '"twists"):\n', None),
    # moddata.check_fields, exponent_table and from_table
    ("moddata", "if row[i + 1:] != column[i + 1:]:", "if False:", None),
    ("moddata", "    if rows[0][0] != one:", "    if False:", None),
    ("moddata", "    if twists[0] != one:", "    if False:", None),
    ("moddata", "if label_names is not None and len(label_names) != rank:", "if False:", None),
    ("moddata", "roots[key][1] // gcd(roots[key][1], 2)", "roots[key][1]", None),
    ("moddata", "roots[key][0] * (2 * n // roots[key][1])", "roots[key][0] * (n // roots[key][1])",
     None),
    ("moddata", "    if one:\n", "    if False:\n", None),
    ("moddata", "roots[key][0] * (n // roots[key][1])", "roots[key][0]", None),
    ("moddata", "vars(md).update(rank=len(table[2]), provenance=provenance,",
     "vars(md).update(rank=len(table[2]), provenance=None,", None),
    ("moddata", "label_names=label_names,\n                    _exponents=table)",
     "label_names=None,\n                    _exponents=table)", None),
    # moddata: the Gauss data, fusion probabilities and link invariants
    ("moddata", "sum_values(theta.conjugate() * d2 for", "sum_values(theta * d2 for", None),
    ("moddata", "identity = (p_plus * p_minus - d_squared).is_zero()", "identity = True", None),
    ("gauss", "return not any(_reduce(2 * n, raw))", "return True", None),
    ("moddata", "0 <= i < md.rank and 0 <= j < md.rank", "0 <= i < md.rank and j < md.rank", None),
    ("moddata", "        if not weight.is_rational():", "        if False:", None),
    ("moddata", "        if w < 0:", "        if False:", None),
    # _cubed checks every label against each generator of the law: a generator
    # skipped, or row 0 alone checked
    ("moddata", 'for g in self._group[1] for x',
     'for g in self._group[1][1:] for x', None),
    ("moddata", 'for x in range(self.rank))', 'for x in range(1))', None),
    # verify_all forms the fusion tensor of data without a group law
    ("moddata", "        if md._law is None:  # a group law", "        if False:  # a group law", None),
    ("links", "exponent += linking[i][i] * t[a]", "exponent += 0", None),
    ("links", "exponent += 2 * linking[i][j] * s[a][colors[j]]",
     "exponent += linking[i][j] * s[a][colors[j]]", None),
    ("links", "return exponent % (2 * n), 2 * n", "return exponent % n, 2 * n", None),
    ("links", "if self.linking[i][j] != self.linking[j][i]:", "if False:", None),
    ("links", "if md.provenance is None or md._exponents is None:", "if md.provenance is None:",
     None),
    # values.tokens: a table is written from its exponents, without values
    ("values", "    if table is not None:\n        from .lattice import table_tokens",
     "    if False:\n        from .lattice import table_tokens", None),
    # fusion by the group law: one outcome i.j of probability 1, with no cyclo
    ("moddata", "    if law is not None:\n        return ((law[i][j], 1),)",
     "    if False:\n        return ((law[i][j], 1),)", None),
    ("moddata", "return ((law[i][j], 1),)", "return ((law[i][i], 1),)", None),
    # the Gauss sums of a table: the count of each root e(k/2n) in D^2 and
    # p+-, over every label, printed at conductor 2n
    ("gauss", "(4 * b, 4 * b + a, 4 * b - a)", "(4 * b, 4 * b + a + 1, 4 * b - a)", None),
    ("gauss", "(4 * b, 4 * b + a, 4 * b - a)", "(2 * b, 2 * b + a, 2 * b - a)", None),
    ("gauss", "raw[k % size] += 1", "raw[k % size] = 1", None),
    ("gauss", "tuple(_reduce(2 * n, raw)", "tuple(_reduce(n, raw)", None),
    # p+ p- as one scatter of p- per term x e(j/2n) of p+, shifted by j
    ("gauss", "1, j)", "1, -j)", None),
    # data built from values of roots of unity holds its table from construction
    ("moddata", 'vars(self)["_exponents"] = value_exponents(self.s_tilde, self.twists)',
     'vars(self)["_exponents"] = None', None),
    # serialization.data_document: the one writer of construct and serialize
    ("serialization", "    if provenance is not None:\n        from .lattice import format_gram",
     "    if False:\n        from .lattice import format_gram", None),
    ("serialization", '''    lines.append("s_tilde: " + "; ".join(map(", ".join, rows)))
    lines.append("twists: " + ", ".join(twists))''', '''    lines.append("twists: " + ", ".join(twists))
    lines.append("s_tilde: " + "; ".join(map(", ".join, rows)))''', None),
    # show: the dimensions, twists and S~ of a table from its tokens
    ("show", "[value_token(k, 2 * n) for k in t]", "[value_token(k // 2, n) for k in t]", None),
    ("show", "table = None if approx else md._exponents", "table = None", None),
    # dense: packing, reduction as one integer, products and the three dense checks
    ("dense", "(bound.bit_length() + 9) // 8 * 8", "(bound.bit_length() + 7) // 8 * 8", None),
    ("dense", "bound = sum(map(mul, column_norms(left), column_norms(right)))",
     "bound = sum(column_norms(left))", None),
    ("dense", "[max(1, *(sum(", "[max(0, *(sum(", None),
    # the modulus Phi_n(2^width): x^n = 1 alone (2^(width n) - 1), or the
    # slots of Phi_n one byte short
    ("dense", "return width, (pack(phi, width), width, n)",
     "return width, ((1 << width * n) - 1, width, n)", None),
    ("dense", "return width, (pack(phi, width), width, n)",
     "return width, (pack(phi, width - 8), width, n)", None),
    # the width without the largest reduced monomial, or that read off a
    # wrong shift of x^k
    ("dense", "width = slot_width(bound * top)", "width = slot_width(bound)", None),
    ("dense", "zip([0] + row[:-1], phi)", "zip([0] + row, phi)", None),
    # the largest reduced monomial found on every call of ring, not once per n
    ("dense", "@lru_cache(maxsize=None)\ndef _largest_monomial", "def _largest_monomial", None),
    # a long modulus: the slots of a sum, folded by x^n = 1 or not; the slot
    # path for every modulus, or for none (division alone)
    ("dense", "_galois(n, slots(value, width, value.bit_length() // width + 2), 1)",
     "_galois(n, slots(value, width, value.bit_length() // width + 2)[:n], 1)", None),
    ("dense", "if modulus.bit_length() > 3072 + 64 * n:", "if modulus.bit_length() > 0:", None),
    ("dense", "if modulus.bit_length() > 3072 + 64 * n:", "if False:", None),
    # the symmetric residue dropped: the residue in [0, modulus)
    ("dense", "return (value + (modulus >> 1)) % modulus - (modulus >> 1)",
     "return value % modulus", None),
    ("dense", "if rest or not 0 <= m <= limit:", "if not 0 <= m <= limit:", None),
    ("dense", "if rest or not 0 <= m <= limit:", "if rest or not m <= limit:", None),
    ("dense", "if rest or not 0 <= m <= limit:", "if rest or not 0 <= m:", None),
    ("dense", "return all(row == [e] + [0] * (len(row) - 1) for row, e in zip(rows, expected))",
     "return next(rows) == [expected[0]] + [0] * (len(s) - 1)", None),
    ("dense", "    if md._unitary:\n        return p.duals", "    if True:\n        return p.duals",
     None),
    ("dense", "len(hits) == 1 and row[hits[0]] == unit", "row[hits[0]] == unit", None),
    # rows derived from the packed S~ by the Galois map: conj(S~) by sigma_1, S~
    # and S~ T not embedded (k = 1), S~ T with no shift or the opposite one, and
    # the cube's right side shifted by +t
    ("dense", "conj = {x: _galois(n, x, -1)", "conj = {x: _galois(n, x, 1)", None),
    ("dense", "n, k = p.n_t, p.n_t // p.n", "n, k = p.n_t, 1", None),
    ("dense", "for c in x], k, t)", "for c in x], k, 0)", None),
    ("dense", "for c in x], k, t)", "for c in x], k, -t)", None),
    ("dense", "_galois(n, target, 1, -t)", "_galois(n, target, 1, t)", None),
    ("dense", "if any(d.is_zero() for d in dims):", "if False:", None),
    # dense.norm_cofactor, the exact inverse: one conjugate dropped from c, a
    # wrong doubling exponent, the odd step skipped, the cofactor of the lower
    # level left out, 2 taken for a primitive root, the smallest prime of n
    # taken, g not 1 mod m, and a packed product one slot short or too narrow
    ("dense", "bin(order - 1)[3:]", "bin(order - 2)[3:]", None),
    ("dense", "_galois(n, c, pow(g, a, n))", "_galois(n, c, pow(g, a // 2 + 1, n))", None),
    ("dense", '        if bit == "1":\n', "        if False:\n", None),
    ("dense", "return _times(n, c, _galois(n, lower, p)), norm", "return c, norm", None),
    ("dense", "r = next(r for r in range(2, p) if", "r = 2 or next(r for r in range(2, p) if",
     None),
    ("dense", "p = _prime_divisors(n)[-1]", "p = _prime_divisors(n)[0]", None),
    ("dense", "g, order = 1 + m * ((r - 1) * pow(m, -1, p) % p), p - 1", "g, order = r, p - 1",
     None),
    ("dense", "width, len(x) + len(y) - 1)", "width, len(x) + len(y) - 2)", None),
    ("dense", "slot_width(sum(map(abs, x)) * sum(map(abs, y)))",
     "slot_width(max(map(abs, x)) * max(map(abs, y)))", None),
    # dense.inverse_work: the content of x kept in its row, the work estimated
    # for one coefficient in place of phi(n), and Verlinde's inverses left out
    # of the bound checked before any check runs
    ("dense", "content = Fraction(gcd(*num), lcm(*den))", "content = Fraction(1, lcm(*den))",
     None),
    ("dense", "len(y) ** 2 * sum", "len(y) * sum", None),
    ("dense", '    bounded("inverse", sum(inverse_work(d)[0] for d in dims.values() if not',
     '    (sum(inverse_work(d)[0] for d in dims.values() if not', None),
    # a Verlinde failure named as X / (scale D^2): the row of 1/D^2, its
    # denominator or the scale left out
    ("dense", "x = _times(p.n, slots(x, width, len(row)), row)",
     "x = slots(x, width, len(row))", None),
    ("dense", "Fraction(v, scale * den)", "Fraction(v, scale)", None),
    ("dense", "Fraction(v, scale * den)", "Fraction(v, den)", None),
    # cli.entry: the output must be complete, and the code kept, before os._exit
    ("cli", "        sys.stdout.flush()\n", "", None),
    ("cli", "os._exit(code)", "os._exit(0)", None),
    ("cli", "    sys.stderr.flush()\n", "",
     "stderr is line-buffered (Python 3.9 on) and every write to it ends in a newline"),
    # cli._read: a file may begin with a UTF-8 byte-order mark
    ("cli", '.removeprefix("\\ufeff")', "", None),
    # cyclo_core: reduction, the root test and the descent to the minimal conductor
    ("cyclo_core", "for start in range(0, top, step):", "for start in range(0, top - step, step):",
     None),
    ("cyclo_core", "support[0][1] in (1, -1)", "support[0][1] == 1", None),
    ("cyclo_core", "a = (2 * (s + k) + n * (c < 0)) % (2 * n)", "a = (2 * (s + k)) % (2 * n)",
     None),
    ("cyclo_core", "for p in _prime_divisors(n):\n        while", "for p in ():\n        while",
     None),
    # the root test: the value times zeta^s in place of zeta^(-s), and a value
    # with a fraction among its coefficients tested, or every integral one refused
    ("cyclo_core", "_galois(n, coeffs, 1, -s)", "_galois(n, coeffs, 1, s)", None),
    ("cyclo_core", "c.denominator != 1", "c.denominator == 1", None),
    # the descent at p || n: row r read from k = r mod p, or shifted by r a,
    # in place of k = rm mod p and its shift rm mod p times a
    ("cyclo_core", "coeffs[r * m % p::p]", "coeffs[r::p]", None),
    ("cyclo_core", "1, r * m % p * a)", "1, r * a)", None),
    # cyclo_core._scatter, the Galois index map: one place off, or with no shift
    ("cyclo_core", "raw[(j * k + s) % n] += c", "raw[(j * k + s) % n - 1] += c", None),
    ("cyclo_core", "raw[(j * k + s) % n] += c", "raw[j * k % n] += c", None),
    # cyclo_core: the text of a value prints a rational bare, not as a root
    ("cyclo_core", "if not any(coeffs[1:]):", "if False:", None),
    # cyclo: coercion and the rational cases
    ("cyclo", "isinstance(value, (int, Fraction))", "isinstance(value, int)", None),
    # cyclo: conjugation as sigma_(-1), a product's shift without the scale n/m
    # of the other operand, and the inverse divided by the content of the value
    ("cyclo", "_galois(self._conductor, self._coeffs, -1)",
     "_galois(self._conductor, self._coeffs, 1)", None),
    ("cyclo", "sa, k * sb)", "sa, k)", None),
    ("cyclo", "c / (content * norm)", "c / norm", None),
    ("cyclo", "Cyclotomic.from_rational(1 / Fraction(self._coeffs[0]))",
     "Cyclotomic.from_rational(Fraction(self._coeffs[0]))", None),
    ("cyclo", "        if not self.is_rational():\n            raise", "        if False:\n            raise",
     None),
    # lattice: the Gram checks, determinant, Smith form and the form tokens
    ("lattice", "            if rows[i][j] != rows[j][i]:", "            if False:", None),
    ("lattice", "        if rows[i][i] % 2:", "        if False:", None),
    ("lattice", "            sign = -sign\n", "", None),
    ("lattice", "        if a[t][t] < 0:", "        if False:", None),
    ("lattice", "s[i][i] = t[i] % n", "s[i][i] = t[i]", None),
    ("lattice", 'return "-1" if 2 * k == n else root_token(k, n)', "return root_token(k, n)", None),
    ("lattice", "tokens = {k: value_token(k, n) for", "tokens = {k: root_token(k, n) for", None),
    # enumeration: generation, the orbit skip, canonical keys and classes
    ("enumeration", "        lo += lo % 2\n", "", None),
    ("enumeration", "entries += tuple([-x for x in entries])", "entries += entries", None),
    ("enumeration", "key=lambda token: token + \",\"", "key=lambda token: token", None),
    ("enumeration", "rows > best_rows[:len(rows)]", "rows >= best_rows[:len(rows)]", None),
    ("enumeration", "for k in sorted(t)))", "for k in t))", None),
]


def _fails(copy: Path, *paths: str) -> bool:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          "--hypothesis-profile=mutation-audit", *paths],
                         cwd=copy, env=env, capture_output=True)
    return run.returncode != 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        if _fails(copy, "tests"):
            print("the unmutated copy fails Tier-1")
            return 1
        killed = unexplained = 0
        audit_start = time.perf_counter()
        for number, (module, text, replacement, equivalent) in enumerate(MUTANTS, start=1):
            path = copy / "src" / "pointedcat" / f"{module}.py"
            source = path.read_text()
            if source.count(text) != 1:
                print(f"mutant {number}: {text!r} does not occur exactly once in {module}.py")
                return 1
            path.write_text(source.replace(text, replacement))
            start = time.perf_counter()
            first = [f"tests/{name}" for name in FIRST[module]]
            rest = sorted({str(p.relative_to(copy)) for p in copy.glob("tests/test_*.py")}
                          - set(first))
            dead = _fails(copy, *first) or _fails(copy, *rest)
            seconds = time.perf_counter() - start
            path.write_text(source)
            killed += dead
            unexplained += not dead and equivalent is None
            status = "killed" if dead else f"equivalent: {equivalent}" if equivalent else "SURVIVED"
            print(f"mutant {number} ({module}: {text.strip()!r}) {status} in {seconds:.1f} s",
                  flush=True)
        print(f"{killed} of {len(MUTANTS)} mutants killed, "
              f"{len(MUTANTS) - killed - unexplained} argued equivalent, {unexplained} survived, "
              f"in {time.perf_counter() - audit_start:.0f} s after the unmutated run")
        return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
