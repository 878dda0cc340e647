"""Acceptance gate: every primary capability, one printed verdict per check.

Each test covers one acceptance item end to end and prints a PASS/FAIL line
on the real stdout so the verdicts survive pytest's capture.  Expected
values are either classical closed forms checked elsewhere in the suite or
identities that must hold exactly; nothing here is tuned to the code under
test.
"""
import importlib
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

from dickson.fp_poly import (
    Poly,
    frobenius,
    poly_add,
    poly_mul,
    poly_pow,
    poly_scale,
)
from dickson.invariants import (
    L,
    bracket,
    dickson_Q,
    dickson_monomial_count,
    invariant_space_dimension,
    is_invariant,
    recursion_rhs,
)
from dickson.steenrod import (
    corollary_rhs,
    sign_convention_flag,
    smith_switzer_value,
    st_delta,
    st_delta_via_dl2,
    st_delta_via_main,
    steenrod_P,
)
from dickson.verify import CaseSpec, DEFAULT_PAIRS, run_case

PAIRS = DEFAULT_PAIRS
DIMENSION_PAIRS = ((2, 2), (3, 2), (2, 3))  # (n, p)
SCRIPT = "dickson-verify"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def verdict(capsys, label, ok):
    with capsys.disabled():
        print(f"acceptance  {'PASS' if ok else 'FAIL'}  {label}", flush=True)
    assert ok, label


def rand_poly(rng, n, p, max_terms=3, max_exp=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[m] = rng.randint(1, p - 1) if p > 2 else 1
    return Poly(n, p, terms)


def rand_homogeneous(rng, n, p, d):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        terms[tuple(parts)] = rng.randint(1, p - 1) if p > 2 else 1
    return Poly(n, p, terms)


def test_main_closed_form_on_grid(capsys):
    start = time.monotonic()
    ok = True
    for p, n in PAIRS:
        for s in range(n):
            for i in range(1, n + 5):
                direct = st_delta(dickson_Q(n, s, p), i)
                if direct != st_delta_via_main(n, s, i, p):
                    ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    verdict(capsys, f"main closed form, full grid ({elapsed:.1f}s)", ok)


def test_determinant_route_agrees_everywhere(capsys):
    ok = True
    for p, n in PAIRS:
        for s in range(n):
            for i in range(1, n + 5):
                via_det = st_delta_via_dl2(n, s, i, p)
                ok = ok and via_det == st_delta(dickson_Q(n, s, p), i)
                ok = ok and via_det == st_delta_via_main(n, s, i, p)
    verdict(capsys, "determinant route equals the other two routes", ok)


def test_low_range_classical_table(capsys):
    ok = sign_convention_flag(p=3, n=2) == 1
    for p, n in PAIRS:
        for s in range(n):
            for i in range(1, n + 1):
                got = st_delta(dickson_Q(n, s, p), i)
                ok = ok and got == smith_switzer_value(n, s, i, p)
    verdict(capsys, "classical values in the low index range, sign pinned", ok)


def test_bracket_recursion_seeded(capsys):
    ok = True
    for p, n in PAIRS:
        rng = random.Random(7000 + 97 * p + n)
        for _ in range(200):
            prefix = tuple(rng.randint(0, 3) for _ in range(n - 1))
            e = rng.randint(0, 2)
            if bracket(n, prefix + (e + n,), p) != recursion_rhs(n, prefix, e, p):
                ok = False
    verdict(capsys, "bracket recursion, 200 seeded cases per pair", ok)


def test_composite_forms_and_kernel(capsys):
    ok = True
    flagged = []
    for p, n in PAIRS:
        for s in range(n):
            direct_1 = st_delta(dickson_Q(n, s, p), n + 1)
            ok = ok and direct_1 == corollary_rhs("n+1", n, s, p)
            direct_2 = st_delta(dickson_Q(n, s, p), n + 2)
            ok = ok and direct_2 == corollary_rhs("n+2", n, s, p)
            base = poly_mul(poly_pow(dickson_Q(n, 0, p), p - 1), dickson_Q(n, s, p))
            for i in range(1, n + 4):
                once = st_delta(base, i)
                ok = ok and once == corollary_rhs("kernel", n, s, p, i=i)
                ok = ok and st_delta(once, i).is_zero()
            # the one report-only composite: never silently absorbed
            result = run_case(CaseSpec(theorem="cor-n3", p=p, n=n, s=s))
            agrees = st_delta(dickson_Q(n, s, p), n + 3) == corollary_rhs("n+3", n, s, p)
            ok = ok and result.passed and not result.skipped
            ok = ok and result.flagged == (not agrees)
            if result.flagged:
                ok = ok and result.witness is not None
                flagged.append((p, n, s))
    note = f"{len(flagged)} reported discrepancy witness(es) at {flagged}" \
        if flagged else "no discrepancies"
    verdict(capsys, f"composite forms and kernel membership; {note}", ok)


def test_invariance_and_dimension_oracle(capsys):
    ok = True
    for p, n in PAIRS:
        for s in range(n):
            ok = ok and is_invariant(dickson_Q(n, s, p))
    start = time.monotonic()
    for n, p in DIMENSION_PAIRS:
        for d in range(31):
            if invariant_space_dimension(n, p, d) != dickson_monomial_count(n, p, d):
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    verdict(capsys, f"invariance of every generator, dimensions to degree 30 "
            f"({elapsed:.1f}s)", ok)


def test_structural_identities(capsys):
    ok = True
    for p, n in PAIRS:
        ok = ok and dickson_Q(n, 0, p) == poly_pow(L(n, n, p), p - 1)
        for s in range(n):
            ok = ok and dickson_Q(n, s, p).degree() == p ** n - p ** s
    rng = random.Random(424242)
    wide_pairs = [(p, n) for p, n in PAIRS if n >= 2]
    for trial in range(500):
        p, n = wide_pairs[trial % len(wide_pairs)]
        es = tuple(rng.randint(0, 3) for _ in range(n))
        a, b = rng.sample(range(n), 2)
        swapped = list(es)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        value = bracket(n, es, p)
        ok = ok and bracket(n, tuple(swapped), p) == poly_scale(value, p - 1)
        if len(set(es)) < n:
            ok = ok and value.is_zero()
    verdict(capsys, "structural identities and 500 seeded bracket symmetries", ok)


def test_property_suites(capsys):
    failures = []

    def run_family(name, check):
        for p, n in PAIRS:
            rng = random.Random(hash((name, p, n)) & 0xFFFFFFFF)
            for _ in range(100):
                if not check(rng, n, p):
                    failures.append((name, p, n))
                    return

    def derivation(rng, n, p):
        f, g = rand_poly(rng, n, p), rand_poly(rng, n, p)
        i = rng.randint(1, 2)
        lhs = st_delta(poly_mul(f, g), i)
        rhs = poly_add(poly_mul(st_delta(f, i), g), poly_mul(f, st_delta(g, i)))
        return lhs == rhs

    def p_th_powers_die(rng, n, p):
        f = rand_poly(rng, n, p)
        return st_delta(poly_pow(f, p), rng.randint(1, 2)).is_zero()

    def cartan(rng, n, p):
        f = rand_poly(rng, n, p, max_exp=4)
        g = rand_poly(rng, n, p, max_exp=4)
        k = rng.randint(0, 4)
        lhs = steenrod_P(poly_mul(f, g), k)
        rhs = Poly(n, p, {})
        for a in range(k + 1):
            rhs = poly_add(rhs, poly_mul(steenrod_P(f, a), steenrod_P(g, k - a)))
        return lhs == rhs

    def unstability(rng, n, p):
        d = rng.randint(1, 4)
        f = rand_homogeneous(rng, n, p, d)
        return (steenrod_P(f, d) == poly_pow(f, p)
                and steenrod_P(f, d + 1).is_zero()
                and steenrod_P(f, d + rng.randint(2, 5)).is_zero())

    def frobenius_power(rng, n, p):
        f = rand_poly(rng, n, p, max_exp=3)
        e = rng.randint(0, 2)
        return frobenius(f, e) == poly_pow(f, p ** e)

    run_family("derivation", derivation)
    run_family("p-th powers die", p_th_powers_die)
    run_family("cartan", cartan)
    run_family("unstability", unstability)
    run_family("frobenius", frobenius_power)
    verdict(capsys, "five property families, 100 seeded cases per pair each; "
            f"failures: {failures or 'none'}", not failures)


def declared_entry_point(name):
    """The ``module:attr`` target that ``[project.scripts]`` gives console
    script ``name``, or None when it declares none.

    Python 3.10 has no ``tomllib``; there the installed package's metadata
    is read when it exists, and otherwise the lines of that one table.
    """
    try:
        import tomllib
    except ModuleNotFoundError:
        from importlib.metadata import entry_points
        for entry in entry_points(group="console_scripts", name=name):
            return entry.value
        in_table = False
        for line in PYPROJECT.read_text().splitlines():
            line = line.strip()
            if line.startswith("["):
                in_table = line == "[project.scripts]"
            elif in_table and "=" in line:
                key, value = (part.strip() for part in line.split("=", 1))
                if key.strip("\"'") == name:
                    return value.strip("\"'")
        return None
    with PYPROJECT.open("rb") as f:
        project = tomllib.load(f).get("project", {})
    return project.get("scripts", {}).get(name)


def entry_point_exit_code(entry, args):
    """Exit code of ``entry`` run in a fresh interpreter as a generated
    console-script wrapper runs it, or None when its target does not import
    or is not callable."""
    module, _, attr = entry.partition(":")
    try:
        target = getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None
    if not callable(target):
        return None
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.argv[0] = {SCRIPT!r}; sys.exit({attr}())")
    return subprocess.run([sys.executable, "-c", wrapper, *args],
                          capture_output=True, text=True).returncode


def test_harness_self_check(capsys):
    failed_checks = []

    def check(name, ok):
        if not ok:
            failed_checks.append(name)

    base = [sys.executable, "-m", "dickson",
            "--theorem", "q0-power", "--p", "2", "--n", "2", "--format", "json"]
    clean = subprocess.run(base, capture_output=True, text=True)
    broken = subprocess.run(base + ["--inject-failure"],
                            capture_output=True, text=True)
    check("clean exit code", clean.returncode == 0)
    check("injected exit code", broken.returncode == 1)
    data = json.loads(broken.stdout) if broken.stdout else {}
    failed = [c for c in data.get("cases", []) if not c["passed"]]
    check("failure witness", len(failed) == 1 and failed[0].get("witness") == "1")
    script_args = ["--theorem", "q0-power", "--p", "3", "--n", "1"]
    entry = declared_entry_point(SCRIPT)
    check(f"declared entry point {entry or '(none)'}",
          entry is not None and entry_point_exit_code(entry, script_args) == 0)
    label = "harness self check: exit codes, failure witness, declared entry point"
    # an installed script is checked too, so a broken install still fails
    script = shutil.which(SCRIPT)
    if script:
        via_script = subprocess.run([script, *script_args],
                                    capture_output=True, text=True)
        check(f"installed script {script}", via_script.returncode == 0)
        label += ", installed script"
    if failed_checks:
        label += f"; failed: {', '.join(failed_checks)}"
    verdict(capsys, label, not failed_checks)
