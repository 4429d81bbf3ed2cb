import pytest

from semirep.corpus import build_instance, instance
from semirep.groups import cyclic_group

from helpers import conjugation_spec


@pytest.fixture(scope="session")
def inst_a():
    return instance("A")


@pytest.fixture(scope="session")
def inst_b():
    return instance("B")


@pytest.fixture(scope="session")
def inst_c():
    return instance("C")


@pytest.fixture(scope="session")
def inst_d():
    return instance("D")


@pytest.fixture(scope="session")
def inst_e():
    return instance("E")


@pytest.fixture(scope="session")
def inst_f():
    return instance("F")


@pytest.fixture(scope="session")
def inst_g():
    return instance("G")


@pytest.fixture(scope="session")
def inst_h():
    return instance("H")


@pytest.fixture(scope="session")
def rung_instance():
    """C(S4) x| Z2, Z2 acting by conjugation with the transposition (0 1); dim 48."""
    return build_instance(conjugation_spec(4, range(24), cyclic_group(2),
                                           lambda r: (1, 0, 2, 3) if r else (0, 1, 2, 3)))
