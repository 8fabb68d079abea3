import pytest

from keyvariety.incidence import clear_base_points
from keyvariety.projspace import clear_point_sets


@pytest.fixture(autouse=True)
def _empty_point_set_memo():
    """Each test starts and ends with an empty point-set memo and base-point
    cache, so no test reuses (or holds on to) the point sets of another."""
    clear_point_sets()
    clear_base_points()
    yield
    clear_point_sets()
    clear_base_points()
