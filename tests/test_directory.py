import pytest

from mirrorplane import PrincipalKind, World
from mirrorplane.directory import SOURCE_OF_TRUTH_GROUP
from mirrorplane.errors import (
    DuplicateName,
    GroupEmpty,
    GroupMissing,
    InvalidName,
    UnknownGroup,
    UnknownPrincipal,
)
from mirrorplane.world import canonical_json

from conftest import HELEN_HOME, POSTS_HOME


def test_add_human_gets_workspace_identity(world):
    record = world.directory.add_principal("helen", PrincipalKind.HUMAN, HELEN_HOME)
    assert record.kind is PrincipalKind.HUMAN
    assert record.has_workspace_identity is True
    assert record.hdfs_home == HELEN_HOME


def test_add_headless_has_no_workspace_identity(world):
    record = world.directory.add_principal(
        "posts-analyze", PrincipalKind.HEADLESS, POSTS_HOME
    )
    assert record.has_workspace_identity is False


def test_add_duplicate_name_rejected(world):
    world.directory.add_principal("helen", PrincipalKind.HUMAN, HELEN_HOME)
    with pytest.raises(DuplicateName):
        world.directory.add_principal("helen", PrincipalKind.HUMAN, None)


@pytest.mark.parametrize("name", ["", "Helen", "na me", "a" * 64, "p@x", "hél"])
def test_illegal_principal_names(world, name):
    with pytest.raises(InvalidName):
        world.directory.add_principal(name, PrincipalKind.HUMAN, None)


def test_a_trailing_newline_is_not_part_of_a_legal_name(world):
    # "$" alone would let "helen\n" through and split audit and tree lines.
    with pytest.raises(InvalidName):
        world.directory.add_principal("helen\n", PrincipalKind.HUMAN, None)
    with pytest.raises(InvalidName):
        world.directory.add_group("readers\n")


@pytest.mark.parametrize("name", ["a", "a" * 63, "data_pipeline", "x-1_y"])
def test_legal_principal_names(world, name):
    # Underscores are legal on-premise; only mirror derivation rejects them.
    assert world.directory.add_principal(name, PrincipalKind.HEADLESS, None).name == name


def test_join_group_idempotent(populated):
    group = populated.directory.group(SOURCE_OF_TRUTH_GROUP)
    before = list(group.members)
    events_before = len(populated.audit)
    populated.directory.join_group(SOURCE_OF_TRUTH_GROUP, "posts-analyze")
    assert group.members == before
    assert len(populated.audit) == events_before  # no-op joins are not audited


def test_join_unknown_group_or_principal(populated):
    with pytest.raises(UnknownGroup):
        populated.directory.join_group("nope", "helen")
    with pytest.raises(UnknownPrincipal):
        populated.directory.join_group(SOURCE_OF_TRUTH_GROUP, "ghost")


def test_leave_group(populated):
    directory = populated.directory
    directory.leave_group(SOURCE_OF_TRUTH_GROUP, "helen")
    assert "helen" not in directory.group(SOURCE_OF_TRUTH_GROUP).members
    events = len(populated.audit)
    directory.leave_group(SOURCE_OF_TRUTH_GROUP, "helen")  # no-op
    assert len(populated.audit) == events


def test_member_order_is_insertion_order(world):
    directory = world.directory
    directory.add_group(SOURCE_OF_TRUTH_GROUP)
    for name in ["zeta", "alpha", "mid"]:
        directory.add_principal(name, PrincipalKind.HEADLESS, None)
        directory.join_group(SOURCE_OF_TRUTH_GROUP, name)
    assert directory.verify_source_group() == ["zeta", "alpha", "mid"]


def test_remove_principal_scrubs_groups(populated):
    result = populated.directory.remove_principal("posts-analyze")
    assert result["removed_from_groups"] == [SOURCE_OF_TRUTH_GROUP]
    assert not populated.directory.has_principal("posts-analyze")
    assert "posts-analyze" not in populated.directory.group(SOURCE_OF_TRUTH_GROUP).members
    with pytest.raises(UnknownPrincipal):
        populated.directory.remove_principal("ghost")


def test_remove_then_readd_gets_fresh_created_at(populated):
    first = populated.directory.principal("posts-analyze").created_at
    populated.directory.remove_principal("posts-analyze")
    populated.advance(30)
    record = populated.directory.add_principal(
        "posts-analyze", PrincipalKind.HEADLESS, POSTS_HOME
    )
    assert record.created_at == first + 30


def test_verify_source_group_examples(populated):
    assert populated.directory.verify_source_group() == ["helen", "posts-analyze"]

    empty = World.new(seed=1)
    with pytest.raises(GroupMissing):
        empty.directory.verify_source_group()
    empty.directory.add_group(SOURCE_OF_TRUTH_GROUP)
    with pytest.raises(GroupEmpty):
        empty.directory.verify_source_group()


def test_directory_ops_never_touch_cloud_or_vault(populated):
    before = (populated.cloud.to_dict(), populated.vault.to_dict())
    populated.directory.add_principal("extra", PrincipalKind.HUMAN, None)
    populated.directory.join_group(SOURCE_OF_TRUTH_GROUP, "extra")
    populated.directory.leave_group(SOURCE_OF_TRUTH_GROUP, "extra")
    populated.directory.remove_principal("extra")
    assert (populated.cloud.to_dict(), populated.vault.to_dict()) == before


def test_replay_yields_identical_export():
    def build() -> str:
        world = World.new(seed=3)
        directory = world.directory
        directory.add_group(SOURCE_OF_TRUTH_GROUP)
        directory.add_principal("helen", PrincipalKind.HUMAN, HELEN_HOME)
        directory.add_principal("ads_report", PrincipalKind.HEADLESS, None)
        directory.join_group(SOURCE_OF_TRUTH_GROUP, "helen")
        directory.join_group(SOURCE_OF_TRUTH_GROUP, "ads_report")
        directory.join_group(SOURCE_OF_TRUTH_GROUP, "helen")
        directory.remove_principal("ads_report")
        return canonical_json(world.directory.to_dict())

    assert build() == build()


def test_group_membership_referential_integrity(populated):
    directory = populated.directory
    for group in directory.groups():
        assert all(directory.has_principal(m) for m in group.members)
