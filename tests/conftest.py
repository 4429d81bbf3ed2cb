import pytest

from semirep.corpus import instance

from helpers import shipped_instance


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
    return shipped_instance("g")


@pytest.fixture(scope="session")
def inst_h():
    return shipped_instance("h")
