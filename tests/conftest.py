import pytest

from keyvariety.projspace import clear_point_sets


@pytest.fixture(autouse=True)
def _empty_point_set_memo():
    """Each test starts and ends with an empty point-set memo, so no test
    reuses (or holds on to) the point sets of another."""
    clear_point_sets()
    yield
    clear_point_sets()
