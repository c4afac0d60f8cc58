"""Mutation audit of the document parse and of the table checks it relies on.

    python tests/mutation_audit.py

Copies the repository to a temporary directory and, for each mutant below,
applies one text replacement that must match exactly once, then runs Tier-1
with -x on the copy: tests/test_serialization.py first, and the whole suite
if that passes. A mutant is killed when a test fails. A mutant that survives
must carry a one-line argument that it is equivalent to the code; the script
exits 1 if any other mutant survives, or if the unmutated copy fails. It
prints one line per mutant and the kill count. pytest does not collect this
file (its name does not start with test_).
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

# (module of src/pointedcat, text, replacement, equivalence argument or None)
MUTANTS = [
    # serialization.parse and its helpers
    ("serialization", "gram is None or (table.n, table.s, table.t) == implied)", "True)", None),
    ("serialization", "    check_conductor(x.conductor if", "    list(x.conductor if", None),
    ("serialization", "x[1] if x[1] > 2 else 1", "x[1]", None),
    ("serialization", "not any(table.s[0]) and (", "(", None),
    ("serialization", "        check_fields(rank, table.s, table.t, labels, 0)\n", "", None),
    ("serialization", "and 0 <= a < b", "and 0 <= a and b", None),
    ("serialization", " and gcd(a, b) == 1", "", None),
    ("serialization", 'token == f"e({a}/{b})" and ', "", None),
    ("serialization", "        return 1, 2\n", "        return 1, 1\n", None),
    ("serialization", "if group.order != rank:", "if False:", None),
    ("serialization", "if twist.root_exponent() != Fraction(k, 2 * n):", "if False:", None),
    ("serialization", "for j in range(i, md.rank):", "for j in range(i + 1, md.rank):", None),
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
    ("moddata", "vars(md).update(rank=rank, provenance=provenance,",
     "vars(md).update(rank=rank, provenance=None,", None),
    ("moddata", "label_names=label_names,\n                    _exponents=table)",
     "label_names=None,\n                    _exponents=table)", None),
]


def _fails(copy: Path, *paths: str) -> bool:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          *paths], cwd=copy, env=env, capture_output=True)
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
        for number, (module, text, replacement, equivalent) in enumerate(MUTANTS, start=1):
            path = copy / "src" / "pointedcat" / f"{module}.py"
            source = path.read_text()
            if source.count(text) != 1:
                print(f"mutant {number}: {text!r} does not occur exactly once in {module}.py")
                return 1
            path.write_text(source.replace(text, replacement))
            start = time.perf_counter()
            dead = _fails(copy, "tests/test_serialization.py") or _fails(copy, "tests")
            seconds = time.perf_counter() - start
            path.write_text(source)
            killed += dead
            unexplained += not dead and equivalent is None
            status = "killed" if dead else f"equivalent: {equivalent}" if equivalent else "SURVIVED"
            print(f"mutant {number} ({module}: {text.strip()!r}) {status} in {seconds:.1f} s",
                  flush=True)
        print(f"{killed} of {len(MUTANTS)} mutants killed, "
              f"{len(MUTANTS) - killed - unexplained} argued equivalent, {unexplained} survived")
        return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
