import json

import pytest

from mirrorplane import PrincipalKind, World
from mirrorplane.cli import main
from mirrorplane.directory import SOURCE_OF_TRUTH_GROUP

SAP = "service-accounts-project"
HELEN_HOME = "/dc1/cluster1/user/helen"
POSTS_HOME = "/dc1/cluster1/user/posts-analyze"


def mirror(name: str, project: str = SAP) -> str:
    return f"{name}-mirror@{project}.iam.gserviceaccount.com"


@pytest.fixture
def world() -> World:
    return World.new(seed=7)


@pytest.fixture
def populated(world: World) -> World:
    """helen (human) and posts-analyze (headless) joined, not yet reconciled."""
    directory = world.directory
    directory.add_group(SOURCE_OF_TRUTH_GROUP)
    directory.add_principal("helen", PrincipalKind.HUMAN, HELEN_HOME)
    directory.add_principal("posts-analyze", PrincipalKind.HEADLESS, POSTS_HOME)
    directory.join_group(SOURCE_OF_TRUTH_GROUP, "helen")
    directory.join_group(SOURCE_OF_TRUTH_GROUP, "posts-analyze")
    return world


@pytest.fixture
def converged(populated: World) -> World:
    populated.reconciler.reconcile_tick()
    return populated


@pytest.fixture
def provisioned(converged: World) -> World:
    """Converged world with both user buckets provisioned."""
    converged.onboarder.provision_bucket("posts-analyze")
    converged.onboarder.provision_bucket("helen")
    return converged


def reimport(tmp_path, edit) -> int:
    """Export the working world with secrets, apply ``edit`` to the document, import it back."""
    snapshot = tmp_path / "snapshot.json"
    assert main(["state", "export", "--reveal-secrets", "-o", str(snapshot)]) == 0
    data = json.loads(snapshot.read_text(encoding="utf-8"))
    edit(data)
    snapshot.write_text(json.dumps(data), encoding="utf-8")
    return main(["state", "import", str(snapshot)])
