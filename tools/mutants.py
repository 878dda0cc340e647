"""Gate mutations: edits of src/dickson that the default grid must catch.

    python tools/mutants.py

Each row of MUTANTS names a file under src/dickson, an old text that must
occur in it exactly once, the new text, and the effect the edit must have
on the report of `python -m dickson --format json`, against the pinned
report perfbench/expected/default-grid.json:
  - failed: the number of cases that fail, by family;
  - unflagged: the cases that lose their flag, still passing;
  - moved: the cases whose witness moves, the verdict unchanged;
  - sign_flag: the report's sign flag, when it changes;
  - crash: no report at all, the child ending in a traceback.
Any other difference (a skip, a new flag, a missing case) fails the row.

For each row the script copies src/ to a temporary directory, applies the
edit there and runs the default grid in a child process.  The clean tree
must match the pin first.  An old text that is not found fails its row,
so the table cannot go stale unnoticed.  Exit status 0 when every row has
its effect, 1 otherwise.  Only the standard library is used.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Dict, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED = ROOT / "perfbench" / "expected" / "default-grid.json"
FIELDS = ("theorem", "p", "n", "s", "i", "d")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    effect: dict


MUTANTS = [
    # the Frobenius multiplier of the product kernel (poly_dot)
    Mutant("the multiplier dropped on the single-term path", "fp_poly.py",
           "tuple(a + b * gq for a, b in zip(m1, m2))",
           "tuple(a + b for a, b in zip(m1, m2))",
           {"failed": {"main": 24, "routes-agree": 8, "cor-n2": 8, "cor-n3": 9, "kernel": 24,
                       "recursion": 2}}),
    Mutant("the multiplier left behind by the smaller-first swap", "fp_poly.py",
           "f, fq, g, gq = g, gq, f, fq",
           "f, g = g, f",
           {"failed": {"main": 51, "det-formula": 21, "routes-agree": 42, "smith-switzer": 9,
                       "cor-n1": 9, "cor-n2": 9, "cor-n3": 9, "kernel": 12, "invariance": 3,
                       "recursion": 1, "q0-power": 1}}),
    Mutant("the packed path ignoring the multiplier", "fp_poly.py",
           "return keys if q == 1 else [k * q for k in keys]",
           "return keys",
           {"failed": {"main": 67, "det-formula": 57, "routes-agree": 57, "smith-switzer": 21,
                       "cor-n1": 11, "cor-n2": 11, "cor-n3": 11, "kernel": 18, "invariance": 9,
                       "recursion": 4, "q0-power": 4},
            "sign_flag": 0}),
    # Dickson's recursion (_dickson_row, dickson_Q)
    Mutant("V_k: the t = 0 term with the wrong sign", "invariants.py",
           "poly_dot([(_sign_unit(k - 1 - t, p), q_t,",
           "poly_dot([(_sign_unit(k - 1 - t + (t == 0), p), q_t,",
           {"failed": {"main": 24, "det-formula": 24, "routes-agree": 24, "smith-switzer": 8,
                       "cor-n1": 4, "cor-n2": 4, "cor-n3": 4, "invariance": 4, "recursion": 2,
                       "q0-power": 2},
            "sign_flag": 0}),
    Mutant("no Frobenius on Q_{k-1,t-1}", "invariants.py",
           "poly_dot([(1, one, lower[t], 1), (1, v, q[t], 0)], n, p)",
           "poly_dot([(1, one, lower[t], 0), (1, v, q[t], 0)], n, p)",
           {"failed": {"main": 54, "det-formula": 39, "routes-agree": 51, "smith-switzer": 15,
                       "cor-n1": 9, "cor-n2": 9, "cor-n3": 9, "invariance": 6, "recursion": 4,
                       "q0-power": 1},
            "sign_flag": 0}),
    Mutant("V_k**p in place of V_k**(p-1)", "invariants.py",
           "v = poly_pow(v, p - 1)",
           "v = poly_pow(v, p)",
           {"failed": {"main": 67, "det-formula": 60, "routes-agree": 60, "smith-switzer": 16,
                       "cor-n1": 11, "cor-n2": 11, "cor-n3": 11, "invariance": 11, "recursion": 6,
                       "q0-power": 6},
            "sign_flag": 0}),
    Mutant("Q_{n,s} negated (still invariant: only the product check sees it)",
           "invariants.py",
           "return _dickson_row(n, p)[s]",
           "return -_dickson_row(n, p)[s]",
           {"failed": {"main": 29, "det-formula": 27, "routes-agree": 27, "smith-switzer": 5,
                       "cor-n1": 5, "cor-n2": 5, "cor-n3": 5, "invariance": 5, "recursion": 3,
                       "q0-power": 3}}),
    # brackets and their quotients
    Mutant("the parity of the last permutation flipped", "invariants.py",
           "for b in range(a + 1, n)) % 2 == 1)",
           "for b in range(a + 1, n)) % 2 == (sigma != tuple(range(n - 1, -1, -1))))",
           {"failed": {"main": 24, "det-formula": 22, "routes-agree": 22, "cor-n1": 4,
                       "cor-n2": 4, "cor-n3": 4, "kernel": 10, "invariance": 4, "recursion": 2,
                       "q0-power": 2}}),
    Mutant("quotient base case (-1)**(n-left)", "invariants.py",
           "poly_const(_sign_unit(n - 1 - left, p), n, p)",
           "poly_const(_sign_unit(n - left, p), n, p)",
           {"failed": {"main": 29, "routes-agree": 27, "cor-n1": 5, "cor-n2": 5, "cor-n3": 5}}),
    Mutant("quotient recursion with Frobenius index j - n + 1", "invariants.py",
           "return _recursion_sum(n, j - n, p,",
           "return _recursion_sum(n, j - n + 1, p,",
           {"failed": {"main": 55, "routes-agree": 44, "cor-n1": 11, "cor-n2": 11, "cor-n3": 11}}),
    Mutant("the sign of the t = 0 recursion triple dropped", "invariants.py",
           "poly_dot([(_sign_unit(n + t - 1, p), low,",
           "poly_dot([(_sign_unit(n + t - 1, p) if t else 1, low,",
           {"failed": {"main": 18, "routes-agree": 14, "cor-n1": 4, "cor-n2": 4, "cor-n3": 4,
                       "recursion": 2}}),
    # the generator actions
    Mutant("the least Lucas term dropped from the T row of the table", "invariants.py",
           "lambda m, p: ((m, 1), *_transvection_image(m, p))),",
           "lambda m, p: ((m, 1), *list(_transvection_image(m, p))[1:])),",
           {"failed": {"invariance": 4}}),
    Mutant("the least Lucas term dropped from _transvection_image", "invariants.py",
           "for k, c in _lucas_row(b, p):",
           "for k, c in _lucas_row(b, p)[1:]:",
           {"failed": {"invariance": 4}}),
    # the rows of the dimension counts, by tail block, each pair's image built once
    Mutant("the shorter orientation dropped from the pair image", "invariants.py",
           "_add_into(image, ((f + k, c) for k, c in short), 1, p)",
           "pass",
           {"failed": {"hilbert": 66}}),
    Mutant("the least Lucas term of the longer row dropped from the pair image",
           "invariants.py",
           "image = {e + k: c for k, c in row}",
           "image = {e + k: c for k, c in row[1:]}",
           {"failed": {"hilbert": 63}}),
    # the Lucas rows, read by T, the dimension counts and the reduced powers
    Mutant("the place of the next digit not raised in _lucas_row", "fp_poly.py",
           "        q *= p\n",
           "",
           {"failed": {"invariance": 9, "hilbert": 68}}),
    Mutant("D read as g**a2", "invariants.py",
           "pow(_least_primitive_root(p), m[0], p)",
           "pow(_least_primitive_root(p), m[1], p)",
           {"crash": True}),
    # the certificate of the main theorem
    Mutant("the P-term of link 4 added", "verify.py",
           "(-1, poly_one(n, p), P, 1)], n, p)",
           "(1, poly_one(n, p), P, 1)], n, p)",
           {"failed": {"main": 10, "cor-n1": 2, "cor-n2": 2, "cor-n3": 2}}),
    Mutant("the base cases of link 2 read without L_n", "verify.py",
           "return lhs == poly_mul(L(n, n, p), y_quotient(n, left, j, p))",
           "return lhs == y_quotient(n, left, j, p)",
           {"failed": {"main": 66, "cor-n1": 11, "cor-n2": 11, "cor-n3": 11}}),
    Mutant("the sign of the t = 0 term of the roots check flipped (p = 2 cannot see it)",
           "verify.py",
           "if poly_dot([(_sign_unit(n - t, p), dickson_Q(n, t, p),",
           "if poly_dot([(_sign_unit(n - t + (t == 0), p), dickson_Q(n, t, p),",
           {"failed": {"main": 25, "cor-n1": 5, "cor-n2": 5, "cor-n3": 5}}),
    Mutant("the y-recursion of link 2 with Frobenius index j - n + 1", "verify.py",
           "poly_var(t + 1, n, p), j - n) for t in range(n)], n, p)",
           "poly_var(t + 1, n, p), j - n + 1) for t in range(n)], n, p)",
           {"failed": {"main": 55, "cor-n1": 11, "cor-n2": 11, "cor-n3": 11}}),
    Mutant("the cor-n2 family reading the n+3 row", "verify.py",
           '_case_closed_form(spec, spec.n + 2, "n+2")',
           '_case_closed_form(spec, spec.n + 2, "n+3")',
           {"failed": {"cor-n2": 11}}),
    Mutant("the flag witness read as (p - 1) lead", "verify.py",
           "top = tuple(p * a - b for a, b in",
           "top = tuple((p - 1) * a - b for a, b in",
           {"moved": ["cor-n3 p=3 n=2 s=1", "cor-n3 p=5 n=2 s=1"]}),
    # the primitive operation every closed form is checked against (st_delta)
    Mutant("the derivation's coefficient a dropped", "steenrod.py",
           "(out.get(mm, 0) + c * r) % p",
           "(out.get(mm, 0) + c) % p",
           {"failed": {"main": 29, "det-formula": 29, "routes-agree": 29, "smith-switzer": 9,
                       "cor-n1": 5, "cor-n2": 5, "cor-n3": 5},
            "sign_flag": 0}),
    Mutant("a cancelled term kept", "steenrod.py",
           "out.pop(mm, None)",
           "pass",
           {"failed": {"main": 7, "det-formula": 7, "routes-agree": 7, "smith-switzer": 7,
                       "kernel": 7}}),
    # the main form in x, which routes-agree alone builds
    Mutant("P read without its Frobenius power in _main_form", "steenrod.py",
           "(sign, L(n, n, p), P, 1)",
           "(sign, L(n, n, p), P, 0)",
           {"failed": {"routes-agree": 20}}),
    # the corollary rows
    Mutant("the Q_{a-2}**p term dropped from the n+2 row", "steenrod.py",
           "[(1, q(a - 1), q(n - 1), 1), (-1, q(n), q(a - 2), 1)]),",
           "[(1, q(a - 1), q(n - 1), 1)]),",
           {"failed": {"cor-n2": 9}}),
    Mutant("the Q_{a-3}**(p**2) term dropped from the n+3 row", "steenrod.py",
           "(1, q(n), q(a - 3), 2),",
           "(1, q(n), q(-1), 2),",
           {"failed": {"cor-n3": 3}}),
    Mutant("the n+3 row's sign set to -1", "steenrod.py",
           '"n+3": (+1, lambda',
           '"n+3": (-1, lambda',
           {"unflagged": ["cor-n3 p=3 n=2 s=1", "cor-n3 p=5 n=2 s=1"]}),
]


def case_id(case: dict) -> str:
    fields = " ".join(f"{k}={case[k]}" for k in FIELDS[1:] if case.get(k) is not None)
    return f"{case['theorem']} {fields}"


def run_grid(src: Path) -> Optional[dict]:
    """The default grid's JSON report from the tree at src, or None when
    the child writes none."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "dickson", "--format", "json"],
                          cwd=src, env=env, capture_output=True, text=True, timeout=300)
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return None


def effect(pinned: dict, report: Optional[dict]) -> dict:
    """How report differs from the pinned report, in the terms of a row's
    effect; {} when it does not."""
    if report is None:
        return {"crash": True}
    failed: Counter = Counter()
    out: Dict[str, list] = {"unflagged": [], "moved": [], "other": []}
    want, got = pinned["cases"], report["cases"]
    if len(want) != len(got):
        out["other"].append(f"{len(got)} cases, pinned {len(want)}")
    for a, b in zip(want, got):
        b = {k: b.get(k) for k in a}
        if a == b:
            continue
        if any(a[k] != b[k] for k in FIELDS):
            out["other"].append(f"{case_id(b)} in place of {case_id(a)}")
        elif a["passed"] and not b["passed"] and not b["skipped"]:
            failed[a["theorem"]] += 1
        elif a["flagged"] and not b["flagged"] and b["passed"] and not b["skipped"]:
            out["unflagged"].append(case_id(a))
        elif all(a[k] == b[k] for k in ("passed", "skipped", "flagged")):
            out["moved"].append(case_id(a))
        else:
            out["other"].append(case_id(a))
    result: dict = {k: v for k, v in out.items() if v}
    if failed:
        result["failed"] = dict(failed)
    if report["sign_flag"] != pinned["sign_flag"]:
        result["sign_flag"] = report["sign_flag"]
    return result


def mutate(tree: Path, mutant: Mutant) -> Optional[str]:
    """Apply the edit to the copy at tree; a message when it cannot be."""
    path = tree / "dickson" / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        return f"old text found {count} times in {mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return None


def main() -> int:
    start = time.perf_counter()
    with open(PINNED, encoding="utf-8") as handle:
        pinned = json.load(handle)
    clean = effect(pinned, run_grid(SRC))
    if clean:
        print(f"the clean tree does not match {PINNED.name}: {clean}")
        return 1
    bad = 0
    with tempfile.TemporaryDirectory(prefix="dickson-mutants-") as scratch:
        for k, mutant in enumerate(MUTANTS):
            tree = Path(scratch) / str(k)
            shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            problem = mutate(tree, mutant)
            if problem is None:
                got = effect(pinned, run_grid(tree))
                if got != mutant.effect:
                    problem = f"expected {mutant.effect}, got {got}"
            bad += problem is not None
            print(f"{'FAIL' if problem else 'ok  '} {mutant.file}: {mutant.name}"
                  + (f"\n     {problem}" if problem else ""))
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants have their effect,"
          f" {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
