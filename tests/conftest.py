import numpy as np
import pytest

from sfwg import fespace
from sfwg.errors import monomial_field  # noqa: F401  (re-exported)


def random_free_function(dofmap, rng):
    """Random coefficients on the free DOFs, zero on the boundary DOFs."""
    w = fespace.WeakFunction.zeros(dofmap)
    w.coeffs[dofmap.free_dofs] = rng.standard_normal(len(dofmap.free_dofs))
    return w


@pytest.fixture(autouse=True)
def _quiet_conditioning_warnings():
    import warnings

    from sfwg.weakcalc import ConditioningWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        yield
