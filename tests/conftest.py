import pytest

from at4tools import graphcheck


@pytest.fixture(scope="session")
def gewirtz():
    return graphcheck.generate_gewirtz()


@pytest.fixture(scope="session")
def gewirtz_witnesses():
    # 600 is deep enough for the composition closure to reach elements of
    # every prime order in the class-preserving group (2, 3, 5 and 7)
    return graphcheck.gewirtz_automorphisms(600)


@pytest.fixture(scope="session")
def gewirtz_group():
    # every one of the 40,320 elements of the witness group
    return graphcheck.gewirtz_automorphisms(10**5)
