import pytest
import scipy.optimize


@pytest.fixture
def lp_results(monkeypatch):
    """Results of the HiGHS solves made through scipy.optimize.linprog
    while the test runs, in call order."""
    results = []
    original = scipy.optimize.linprog

    def counting(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    return results
