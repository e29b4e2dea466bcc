import itertools

import pytest

from mirrorplane import KeyState, PrincipalKind
from mirrorplane.durations import HOUR
from mirrorplane.errors import (
    DuplicateId,
    NoActiveKey,
    OwnerMismatch,
    PermissionDenied,
    UnknownEntry,
    UnknownOwner,
)
from mirrorplane.vault import SecretSource

from conftest import mirror

HELEN_MIRROR = mirror("helen")


@pytest.fixture
def vault(populated):
    return populated.vault


def test_secret_source_is_deterministic_and_128_bit():
    a, b = SecretSource(seed=9), SecretSource(seed=9)
    first = a.next_secret()
    assert first == b.next_secret()
    assert len(first) == 32 and int(first, 16) >= 0
    assert a.next_secret() != first


def test_store_fresh_key(populated, vault):
    version = vault.store_key(HELEN_MIRROR, "helen", "aa" * 16)
    assert version.state is KeyState.ACTIVE
    assert version.key_id == f"{HELEN_MIRROR}#v1"
    assert vault.entry(HELEN_MIRROR).owner_principal == "helen"


def test_find_version_knows_only_held_key_ids(populated, vault):
    version = vault.store_key(HELEN_MIRROR, "helen", "aa" * 16)
    assert vault.find_version(f"{HELEN_MIRROR}#v1") is version
    assert vault.find_version(f"{HELEN_MIRROR}#v2") is None
    assert vault.find_version(f"{mirror('ghost')}#v1") is None  # no entry for its email


def test_store_rotates_prior_active_to_retiring(populated, vault):
    first = vault.store_key(HELEN_MIRROR, "helen", "aa" * 16)
    populated.advance(5)
    second = vault.store_key(HELEN_MIRROR, "helen", "bb" * 16)
    assert second.state is KeyState.ACTIVE
    assert first.state is KeyState.RETIRING
    assert first.retiring_since == 5
    entry = vault.entry(HELEN_MIRROR)
    assert [v.key_id for v in entry.versions] == [second.key_id, first.key_id]
    assert sum(v.state is KeyState.ACTIVE for v in entry.versions) == 1


def test_store_owner_mismatch_and_unknown_owner(populated, vault):
    vault.store_key(HELEN_MIRROR, "helen", "aa" * 16)
    populated.directory.add_principal("mallory", PrincipalKind.HUMAN, None)
    with pytest.raises(OwnerMismatch):
        vault.store_key(HELEN_MIRROR, "mallory", "cc" * 16)
    with pytest.raises(UnknownOwner):
        vault.store_key(mirror("ghost"), "ghost", "dd" * 16)


def test_store_refuses_a_key_id_the_entry_already_holds(populated, vault):
    first = vault.store_key(HELEN_MIRROR, "helen", "aa" * 16)
    vault.entry(HELEN_MIRROR).next_serial = 1  # as a hand-edited state file may say
    events = len(populated.audit)
    with pytest.raises(DuplicateId):
        vault.store_key(HELEN_MIRROR, "helen", "bb" * 16)
    assert vault.entry(HELEN_MIRROR).versions == [first]
    assert first.state is KeyState.ACTIVE and first.secret == "aa" * 16
    assert len(populated.audit) == events


def test_read_key_owner_gate_exhaustive(populated, vault):
    """Every (entry, caller) pair with caller != owner is denied."""
    emails = [HELEN_MIRROR, mirror("posts-analyze")]
    owners = {HELEN_MIRROR: "helen", mirror("posts-analyze"): "posts-analyze"}
    for email in emails:
        vault.store_key(email, owners[email], "ab" * 16)
    populated.directory.add_principal("mallory", PrincipalKind.HUMAN, None)
    callers = ["helen", "posts-analyze", "mallory"]
    for email, caller in itertools.product(emails, callers):
        if caller == owners[email]:
            assert vault.read_key(email, caller).state is KeyState.ACTIVE
        else:
            with pytest.raises(PermissionDenied):
                vault.read_key(email, caller)


def test_read_key_unknown_entry_and_no_active(populated, vault):
    with pytest.raises(NoActiveKey):
        vault.read_key(mirror("ghost"), "anyone")
    vault.store_key(HELEN_MIRROR, "helen", "aa" * 16)
    vault.revoke_all(HELEN_MIRROR)
    with pytest.raises(NoActiveKey):
        vault.read_key(HELEN_MIRROR, "helen")


def test_modify_key_always_denied(populated, vault):
    vault.store_key(HELEN_MIRROR, "helen", "aa" * 16)
    for caller in ("helen", "mallory", "control-plane"):
        with pytest.raises(PermissionDenied):
            vault.modify_key(HELEN_MIRROR, caller)


def test_expire_versions_exact_boundary(populated, vault):
    """A version retiring since t=100 with grace 48h flips at exactly t+grace."""
    grace = 48 * HOUR
    vault.store_key(HELEN_MIRROR, "helen", "aa" * 16)
    populated.advance(100)
    vault.store_key(HELEN_MIRROR, "helen", "bb" * 16)  # v1 retiring at t=100
    retiring = vault.entry(HELEN_MIRROR).versions[1]
    assert retiring.retiring_since == 100

    assert vault.expire_versions(now=100 + grace - 1, grace=grace) == []
    assert retiring.state is KeyState.RETIRING
    transitions = vault.expire_versions(now=100 + grace, grace=grace)
    assert transitions == [(retiring.key_id, "retiring", "invalid")]
    assert retiring.state is KeyState.INVALID
    # Active versions never expire, no matter how old.
    assert vault.expire_versions(now=10 ** 9, grace=grace) == []
    assert vault.entry(HELEN_MIRROR).versions[0].state is KeyState.ACTIVE


def test_revoke_all_counts(populated, vault):
    vault.store_key(HELEN_MIRROR, "helen", "aa" * 16)
    vault.store_key(HELEN_MIRROR, "helen", "bb" * 16)
    assert vault.revoke_all(HELEN_MIRROR) == 2  # active + retiring
    assert vault.revoke_all(HELEN_MIRROR) == 0
    with pytest.raises(UnknownEntry):
        vault.revoke_all(mirror("ghost"))


def test_secret_bytes_never_change(populated, vault):
    version = vault.store_key(HELEN_MIRROR, "helen", "ab" * 16)
    original = version.secret
    vault.store_key(HELEN_MIRROR, "helen", "cd" * 16)
    vault.expire_versions(now=10 ** 6, grace=1)
    vault.revoke_all(HELEN_MIRROR)
    with pytest.raises(PermissionDenied):
        vault.modify_key(HELEN_MIRROR, "helen")
    assert vault.entry(HELEN_MIRROR).versions[1].secret == original


def test_lifecycle_histories_are_monotone(populated, vault):
    order = [KeyState.ACTIVE, KeyState.RETIRING, KeyState.INVALID]
    histories: dict[str, list[KeyState]] = {}  # each version's state after every step
    for step in (
        lambda: vault.store_key(HELEN_MIRROR, "helen", "aa" * 16),
        lambda: vault.store_key(HELEN_MIRROR, "helen", "bb" * 16),
        lambda: vault.expire_versions(now=10 ** 6, grace=1),
        lambda: vault.revoke_all(HELEN_MIRROR),
    ):
        step()
        for version in vault.entry(HELEN_MIRROR).versions:
            histories.setdefault(version.key_id, []).append(version.state)
    for history in histories.values():
        indices = [order.index(state) for state in history]
        assert indices == sorted(indices)
    assert {key: list(dict.fromkeys(h)) for key, h in histories.items()} == {
        f"{HELEN_MIRROR}#v1": [KeyState.ACTIVE, KeyState.RETIRING, KeyState.INVALID],
        f"{HELEN_MIRROR}#v2": [KeyState.ACTIVE, KeyState.INVALID],
    }


def test_versions_share_owner(populated, vault):
    vault.store_key(HELEN_MIRROR, "helen", "aa" * 16)
    vault.store_key(HELEN_MIRROR, "helen", "bb" * 16)
    entry = vault.entry(HELEN_MIRROR)
    assert all(v.account_email == entry.account_email for v in entry.versions)
