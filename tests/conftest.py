import pytest

from branchgroups.catalog import fabrykowski_gupta, gupta_sidki, preset
from branchgroups.context import GroupContext


@pytest.fixture(scope="session")
def fg3_ctx():
    return GroupContext(fabrykowski_gupta(3))


@pytest.fixture(scope="session")
def gs3_ctx():
    return GroupContext(gupta_sidki(3))


@pytest.fixture(scope="session")
def grigorchuk_ctx():
    return GroupContext(preset("sunic-grigorchuk"))
