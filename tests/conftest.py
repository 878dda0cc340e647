"""Shared fixtures."""
import sys
from types import SimpleNamespace

import pytest

from dickson import fp_poly


@pytest.fixture
def dot_spy(monkeypatch):
    """Spy on poly_dot, the one product kernel, in every dickson module
    that binds it; poly_mul is its one-product call, so every product is
    seen.  Records the term pairs len(f) * len(g) of each product handed
    to it (in .pairs) and the terms of each result (in .widths)."""
    real = fp_poly.poly_dot
    seen = SimpleNamespace(pairs=[], widths=[])

    def spy(products, n, p):
        products = list(products)
        seen.pairs.extend(len(f.terms) * len(g.terms) for _, f, g in products)
        result = real(products, n, p)
        seen.widths.append(len(result.terms))
        return result

    for name, module in list(sys.modules.items()):
        if (name == "dickson" or name.startswith("dickson.")) \
                and getattr(module, "poly_dot", None) is real:
            monkeypatch.setattr(module, "poly_dot", spy)
    return seen
