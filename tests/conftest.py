"""Shared fixtures."""
import sys
from types import SimpleNamespace

import pytest

from dickson import fp_poly


def _dickson_modules():
    return [module for name, module in list(sys.modules.items())
            if name == "dickson" or name.startswith("dickson.")]


# Every lru_cache bound in a dickson module, each once, found at import.
CACHES = tuple({id(obj): obj for module in _dickson_modules()
                for obj in vars(module).values() if hasattr(obj, "cache_clear")}.values())


@pytest.fixture
def cold():
    """Every dickson cache empty before the test and after it: a patched
    budget, route or builder is read, not hidden by an earlier outcome,
    and no outcome decided under the patch outlives the test."""
    for cache in CACHES:
        cache.cache_clear()
    yield CACHES
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture
def dot_spy(monkeypatch):
    """Spy on poly_dot, the one product kernel, in every dickson module
    that binds it; poly_mul is its one-product call, so every product is
    seen.  Records, once the kernel has returned, the term pairs
    len(f) * len(g) of each product formed (in .pairs) and the terms of
    each result (in .widths): a product the case budget refuses is never
    recorded."""
    real = fp_poly.poly_dot
    seen = SimpleNamespace(pairs=[], widths=[])

    def spy(products, n, p):
        products = list(products)
        result = real(products, n, p)
        seen.pairs.extend(len(f.terms) * len(g.terms) for _, f, g, _ in products)
        seen.widths.append(len(result.terms))
        return result

    for module in _dickson_modules():
        if getattr(module, "poly_dot", None) is real:
            monkeypatch.setattr(module, "poly_dot", spy)
    return seen


class _Refuse:
    """A case budget that records the (f_terms, g_terms) of each product it
    is asked about in .asked, and refuses it; a polynomial of known size
    (a bracket) it lets be built."""

    def __init__(self):
        self.asked = []

    def before_product(self, f_terms, g_terms):
        self.asked.append((f_terms, g_terms))
        raise RuntimeError("refused")

    def before_terms(self, *counts):
        pass

    def checkpoint(self):
        pass


@pytest.fixture
def refused():
    """refused(build, *args) runs build(*args) under a case budget that
    refuses every product, checks that it stopped there, and returns the
    (f_terms, g_terms) the budget was asked about."""
    def run(build, *args):
        budget = _Refuse()
        token = fp_poly.case_budget.set(budget)
        try:
            with pytest.raises(RuntimeError, match="refused"):
                build(*args)
        finally:
            fp_poly.case_budget.reset(token)
        return budget.asked
    return run
