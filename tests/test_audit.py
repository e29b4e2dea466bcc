import pytest

from mirrorplane import AccessAction
from mirrorplane.errors import AuthFailure

from conftest import mirror

POSTS_BUCKET = "user.posts-analyze.dp.domain"


def test_exception_inside_scope_leaves_later_events_unscoped(world):
    with pytest.raises(RuntimeError):
        with world.audit.scope(tick_id=7):
            world.directory.add_group("inside")
            raise RuntimeError("tick died")
    world.directory.add_group("after")
    inside, after = world.audit.tail(2)
    assert (inside.target, inside.tick_id) == ("inside", 7)
    assert (after.target, after.tick_id, after.job_id) == ("after", None, None)


def test_failed_job_leaves_later_decisions_unscoped(provisioned):
    with pytest.raises(AuthFailure):
        provisioned.authz.submit_job(
            "posts-analyze", mirror("ghost"), [POSTS_BUCKET], [AccessAction.READ]
        )
    assert provisioned.audit.tail(1)[0].job_id == "job-0001"
    token = provisioned.authz.authenticate("posts-analyze", mirror("posts-analyze"))
    provisioned.authz.authorize(token, POSTS_BUCKET, AccessAction.READ)
    assert [e.job_id for e in provisioned.audit.tail(3)] == [None, None, None]
