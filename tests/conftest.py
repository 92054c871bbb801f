import pytest

from subsetsketch.setsystem import SetSystem


@pytest.fixture
def member_id_calls(monkeypatch):
    """The list of queries passed to `SetSystem.member_id` from now on."""
    calls = []
    original = SetSystem.member_id
    monkeypatch.setattr(SetSystem, "member_id",
                        lambda self, q: calls.append(q) or original(self, q))
    return calls
