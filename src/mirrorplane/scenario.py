"""Scenario scripts: plain text, one CLI command per line, ``#`` comments.

The runner replays lines through the same command tree as the interactive
CLI and records a transcript entry per command.  Identical (seed, script)
pairs produce identical transcripts and identical final state exports.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass
from typing import Callable

from .errors import ParseError

# A dispatcher runs one argv and returns (captured stdout, error or None).
Dispatch = Callable[[list[str]], tuple[str, str | None]]


@dataclass
class TranscriptEntry:
    line_no: int
    command: str
    status: str  # "ok" | "error"
    output: str

    def render(self) -> str:
        head = f"L{self.line_no} [{self.status}] {self.command}"
        if not self.output:
            return head
        body = "\n".join(f"    {line}" for line in self.output.splitlines())
        return f"{head}\n{body}"


def parse_script(text: str) -> list[tuple[int, list[str], str]]:
    """Split a script into (line_no, argv, original line) triples."""
    commands = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            argv = shlex.split(line)
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from exc
        commands.append((line_no, argv, line))
    return commands


def run_script(text: str, dispatch: Dispatch, strict: bool = False) -> list[TranscriptEntry]:
    """Apply every command in order.

    Command failures become error entries and execution continues; under
    ``strict`` the first failure ends the run (its entry is still recorded).
    """
    entries: list[TranscriptEntry] = []
    for line_no, argv, line in parse_script(text):
        output, error = dispatch(argv)
        if error is None:
            entries.append(TranscriptEntry(line_no, line, "ok", output.rstrip("\n")))
            continue
        detail = output.rstrip("\n")
        message = f"{detail}\n{error}" if detail else error
        entries.append(TranscriptEntry(line_no, line, "error", message))
        if strict:
            break
    return entries
