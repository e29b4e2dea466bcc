"""A fault between two steps of a member's convergence, repaired by the next tick."""

from mirrorplane import verify_world
from mirrorplane.errors import ControlPlaneError

from conftest import mirror


def test_failed_key_store_leaves_keyless_mirror_that_one_clean_tick_repairs(populated):
    vault = populated.vault
    real_store = vault.store_key
    failures = []

    def store_failing_once(*args):
        if not failures:
            failures.append(args)
            raise ControlPlaneError("vault unavailable")
        return real_store(*args)

    vault.store_key = store_failing_once
    first = populated.reconciler.reconcile_tick()
    helen = mirror("helen")
    assert failures[0][0] == helen
    assert [e["principal"] for e in first.errors] == ["helen"]
    assert populated.cloud.active_mirror_for("helen") == helen
    assert [(v.rule, v.target) for v in verify_world(populated, include_convergence=True)] == [
        ("ActAsViolation", "act-as"),
        ("KeylessMirror", helen),
    ]

    second = populated.reconciler.reconcile_tick()
    assert second.rotated == [helen] and second.actas_granted == [helen]
    assert not second.errors and not second.created
    assert verify_world(populated, include_convergence=True) == []
    assert not populated.reconciler.reconcile_tick().has_changes
    token = populated.authz.impersonate("helen", helen)
    assert token.subject == helen
