from typing import Any, NamedTuple

import numpy as np
import pytest
import scipy.optimize


class LPSolve(NamedTuple):
    """One HiGHS solve: the shapes of its inequality and equality
    constraint matrices (None when absent) and its result."""

    a_ub: tuple[int, int] | None
    a_eq: tuple[int, int] | None
    result: Any


@pytest.fixture
def lp_solves(monkeypatch):
    """The HiGHS solves made through scipy.optimize.linprog while the
    test runs, in call order. Constraint matrices are read from the
    keyword arguments, which is how lipfree passes them."""
    solves = []
    original = scipy.optimize.linprog

    def shape(matrix):
        return None if matrix is None else tuple(np.shape(matrix))

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        solves.append(LPSolve(shape(kwargs.get("A_ub")), shape(kwargs.get("A_eq")), result))
        return result

    monkeypatch.setattr(scipy.optimize, "linprog", recording)
    return solves
