"""Mutation audit of the document parse, the table checks it relies on, the
Gauss data, fusion probabilities and link invariants, the dense checks, the
CLI's exit, cyclotomic arithmetic, the lattice algebra and the enumeration.

    python tests/mutation_audit.py

Copies the repository to a temporary directory and, for each mutant below,
applies one text replacement that must match exactly once, then runs Tier-1
with -x on the copy: the test files FIRST names for the mutated module first,
and the whole suite if they pass. A mutant is killed when a test fails.
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
         "dense": ("test_kernel.py",), "cli": ("test_cli.py",), "show": ("test_cli.py",),
         "cyclo": ("test_cyclo.py",), "lattice": ("test_lattice.py",),
         "enumeration": ("test_enumeration.py",)}

# (module of src/pointedcat, text, replacement, equivalence argument or None)
MUTANTS = [
    # serialization.parse and its helpers
    ("serialization", "if md._exponents != (n, s, t):", "if False:", None),
    ("serialization", "    check_conductor(x.conductor if", "    list(x.conductor if", None),
    ("serialization", "x[1] if x[1] > 2 else 1", "x[1]", None),
    ("moddata", "if table is None or any(table[1][0]):", "if table is None:", None),
    ("serialization", "        check_fields(rank, table[1], table[2], labels, 0)\n", "", None),
    ("serialization", "and 0 <= a < b", "and 0 <= a and b", None),
    ("serialization", " and gcd(a, b) == 1", "", None),
    ("serialization", 'token == f"e({a}/{b})" and ', "", None),
    ("serialization", "        return 1, 2\n", "        return 1, 1\n", None),
    ("serialization", "if abs(gram.determinant) != rank:", "if False:", None),
    ("values", "if twist.root_exponent() != Fraction(k, 2 * n):", "if False:", None),
    ("values", "for j in range(i, md.rank):", "for j in range(i + 1, md.rank):", None),
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
    ("moddata", "        if not weight.is_rational():", "        if False:", None),
    ("moddata", "        if w < 0:", "        if False:", None),
    ("links", "exponent += linking[i][i] * t[a]", "exponent += 0", None),
    ("links", "exponent += 2 * linking[i][j] * s[a][colors[j]]",
     "exponent += linking[i][j] * s[a][colors[j]]", None),
    ("links", "return exponent % (2 * n), 2 * n", "return exponent % n, 2 * n", None),
    ("links", "if self.linking[i][j] != self.linking[j][i]:", "if False:", None),
    # values.tokens: a table is written from its exponents, without values
    ("values", "    if table is not None:\n        from .lattice import table_tokens",
     "    if False:\n        from .lattice import table_tokens", None),
    # fusion by the group law: one outcome i.j of probability 1, with no cyclo
    ("moddata", "    if law is not None:\n        return ((law[i][j], 1),)",
     "    if False:\n        return ((law[i][j], 1),)", None),
    ("moddata", "return ((law[i][j], 1),)", "return ((law[i][i], 1),)", None),
    # the Gauss sums of a table: each distinct (t[a], s[0][a]) once, times its count
    ("moddata", "root_of_unity(Fraction(a, 2 * n))", "root_of_unity(Fraction(a + 1, 2 * n))",
     None),
    ("moddata", "root_of_unity(Fraction(b, n))", "root_of_unity(Fraction(2 * b + 1, 2 * n))",
     None),
    ("moddata", "count * (dims[b] * dims[b])", "dims[b] * dims[b]", None),
    ("moddata", 'table = vars(self).get("_exponents")\n        if table is None:\n            squares',
     "table = None\n        if table is None:\n            squares", None),
    # serialization.data_document: the one writer of construct and serialize
    ("serialization", "    if provenance is not None:\n        from .lattice import format_gram",
     "    if False:\n        from .lattice import format_gram", None),
    ("serialization", '''    lines.append("s_tilde: " + "; ".join(map(", ".join, rows)))
    lines.append("twists: " + ", ".join(twists))''', '''    lines.append("twists: " + ", ".join(twists))
    lines.append("s_tilde: " + "; ".join(map(", ".join, rows)))''', None),
    # show: the dimensions, twists and S~ of a table from its tokens
    ("show", "[value_token(k, 2 * n) for k in t]", "[value_token(k // 2, n) for k in t]", None),
    ("show", 'table = None if approx else vars(md).get("_exponents")', "table = None", None),
    # dense: packing, products and the three dense checks
    ("dense", "(bound.bit_length() + 9) // 8 * 8", "(bound.bit_length() + 7) // 8 * 8", None),
    ("dense", "for start in range(0, slots, n):", "for start in range(0, slots - n, n):", None),
    ("dense", "width = slot_width(sum(map(mul, *norms)))", "width = slot_width(sum(next(norms)))",
     None),
    ("dense", "[max(1, *(sum(", "[max(0, *(sum(", None),
    ("dense", "if r or m < 0 or x !=", "if m < 0 or x !=",
     "with r != 0, x[pivot] = m unit[pivot] + r, so x != m unit already holds"),
    ("dense", "if r or m < 0 or x !=", "if r or x !=", None),
    ("dense", "return all(map(eq, products(n, a, st), expected))",
     "return next(products(n, a, st)) == expected[0]", None),
    ("dense", "    if md._unitary:\n        return p.duals", "    if True:\n        return p.duals",
     None),
    ("dense", "len(hits) == 1 and row[hits[0]] == unit", "row[hits[0]] == unit", None),
    ("dense", "raw[-shift:] + raw[:-shift]", "raw[shift:] + raw[:shift]", None),
    ("dense", "if any(d.is_zero() for d in dims):", "if False:", None),
    # cli.entry: the output must be complete, and the code kept, before os._exit
    ("cli", "        sys.stdout.flush()\n", "", None),
    ("cli", "os._exit(code)", "os._exit(0)", None),
    ("cli", "    sys.stderr.flush()\n", "",
     "stderr is line-buffered (Python 3.9 on) and every write to it ends in a newline"),
    # cyclo: reduction, the root test, coercion and the rational cases
    ("cyclo", "for start in range(0, top, step):", "for start in range(0, top - step, step):",
     None),
    ("cyclo", "support[0][1] in (1, -1)", "support[0][1] == 1", None),
    ("cyclo", "isinstance(value, (int, Fraction))", "isinstance(value, int)", None),
    ("cyclo", "raw[(n - j) % n] += c", "raw[j] += c", None),
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
            dead = _fails(copy, *first) or _fails(copy, "tests")
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
