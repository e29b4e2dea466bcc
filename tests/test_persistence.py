"""Crash-safe state writes and the append-only audit sidecar."""

import os
import shutil
from pathlib import Path

import pytest

from mirrorplane.cli import main
from mirrorplane.world import World


@pytest.fixture
def statefile(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["init", "--seed", "42"]) == 0
    assert main(["dir", "add-group", "mirror-account-users"]) == 0
    return tmp_path / "world.json"


def test_failed_save_keeps_previous_state_file(statefile, monkeypatch):
    before = statefile.read_bytes()
    world = World.load(statefile)
    world.directory.add_group("never-saved")

    def crash(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        world.save(statefile)
    monkeypatch.undo()
    assert statefile.read_bytes() == before
    assert not World.load(statefile).directory.has_group("never-saved")
    assert sorted(p.name for p in statefile.parent.iterdir()) == [
        "world.json", "world.json.audit.jsonl",
    ]


def test_sidecar_ahead_of_state_is_refused(statefile, capsys):
    sidecar = Path(f"{statefile}.audit.jsonl")
    shutil.copy(statefile, "old.json")
    assert main(["dir", "add-group", "a"]) == 0
    assert main(["dir", "add-group", "b"]) == 0
    shutil.copy("old.json", statefile)
    state_bytes, sidecar_bytes = statefile.read_bytes(), sidecar.read_bytes()
    capsys.readouterr()

    assert main(["dir", "add-group", "c"]) == 1
    err = capsys.readouterr().err
    assert "SidecarAhead" in err and "4 audit events" in err and "only 2" in err
    assert statefile.read_bytes() == state_bytes
    assert sidecar.read_bytes() == sidecar_bytes

    # Importing a state replaces the sidecar with that state's events.
    assert main(["state", "import", "old.json"]) == 0
    assert len(sidecar.read_text().splitlines()) == len(World.load(statefile).audit)
