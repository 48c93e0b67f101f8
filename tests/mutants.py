"""Check that tests/test_checks.py kills each listed mutant of checks.py.

Each mutant zeroes one residual of a check, so the mutated check could
never fail on it; for four of them that residual is the whole
conclusion of the check. For each one, ``src/`` is copied
to a temporary directory, the replacement is applied (it must match
exactly once), and ``python -m pytest -q -x tests/test_checks.py`` runs
against the copy; the mutant is killed when pytest exits with 1 (a test
failed). Standard library only; pytest does not collect this file.

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join("normlog", "checks.py")

# name -> (text of checks.py, its mutant)
MUTANTS = {
    "commutator_residual": ('"commutator_residual": lambda c: _rel(',
                            '"commutator_residual": lambda c: 0.0 * _rel('),
    "modulus_equal": ('run.rows({"modulus": _rel(',
                      'run.rows({"modulus": 0.0 * _rel('),
    "modulus_commute": ('run.rows({"modulus_commutator": r})',
                        'run.rows({"modulus_commutator": 0.0 * r})'),
    "square_commute": ('run.rows({"square_commutator": r})',
                       'run.rows({"square_commutator": 0.0 * r})'),
    "boundary_sum": ("boundary = _frob_stack(",
                     "boundary = 0.0 * _frob_stack("),
    "corollary_differences": (
        "found = [_rel(_frob_stack(m), norm_x).tolist()",
        "found = [(0.0 * _rel(_frob_stack(m), norm_x)).tolist()"),
    "fold_identity": ('"fold_identity": _rel(',
                      '"fold_identity": 0.0 * _rel('),
    "kurepa_reconstruction": ('{"reconstruction": r,',
                              '{"reconstruction": 0.0 * r,'),
}


def run(name: str, old: str, new: str) -> bool:
    """Whether the tests kill the mutant ``old`` -> ``new``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(src, TARGET)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(old) != 1:
            sys.exit(f"{name}: {old!r} occurs {text.count(old)} times in "
                     f"{TARGET}, not once")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", os.path.join("tests", "test_checks.py")],
            cwd=ROOT, env=env, capture_output=True, text=True)
    print(f"{name}: pytest exit {proc.returncode}, "
          f"{'killed' if proc.returncode == 1 else 'SURVIVED'}")
    return proc.returncode == 1


def main() -> int:
    survivors = [name for name, (old, new) in MUTANTS.items()
                 if not run(name, old, new)]
    if survivors:
        print(f"surviving mutants: {', '.join(survivors)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
