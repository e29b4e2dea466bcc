"""Run the tier-1 tests against planted faults in the decode and write-back code.

Each mutant is one exact-text replacement in one file of ``src/mirrorplane``.
For each, the script copies ``src/`` to a temporary directory, applies the
replacement there, and runs the tier-1 tests (``tests/``) on the copy
(``PYTHONPATH`` set to it), stopping at the first failure.  A mutant is
*killed* when a test fails and *survives* when all pass.  The results go to
``MUTANTS.json``: each mutant's file, its status and the first failing test.

The script fails (exit 1) when a mutant's text no longer occurs exactly once
in its file, so the list follows the code, or when a mutant survives.  It
first runs the tests on an unchanged copy, which must pass, so a broken tree
does not read as every mutant killed.  ``--count`` runs every test for each
mutant and records how many fail or error; ``--only`` runs the named mutants.

    python scripts/mutants.py                 # every mutant, into MUTANTS.json
    python scripts/mutants.py --count --only getattr-no-malformed --out counts.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/mirrorplane, text, replacement, what the fault is)
MUTANTS = [
    ("getattr-no-malformed", "world.py",
     "        with malformed(key):\n            store.load_state(",
     "        if key:\n            store.load_state(",
     "a store that fails to decode raises its own error, not a SchemaError at its section"),
    ("getattr-keeps-small-store-text", "world.py",
     "        if name not in _AUDITED:  # it may change without an event\n"
     "            del self._loaded[name]",
     "        if name not in _AUDITED:  # it may change without an event\n"
     "            pass",
     "a decoded onboarder, tokens, reconciler or authz is written back as loaded"),
    ("getattr-no-setattr", "world.py",
     "        setattr(self, name, store)\n",
     "",
     "every read of a store decodes it again, so a change to it is lost"),
    ("working-text-audit-one-line", "world.py",
     '"[\\n" + ",\\n".join(map(compact_json, events))',
     '"[\\n" + ",".join(map(compact_json, events))',
     "the working text of a document puts its events on one line"),
    ("working-text-any-audit", "world.py",
     "    if not isinstance(events, list):\n        with malformed(",
     "    if False:\n        with malformed(",
     "an audit that is not a list is taken"),
    ("working-text-no-missing-key", "world.py",
     '            raise SchemaError(f"missing required key (at /{key})")',
     "            continue",
     "a document without a section fails with a KeyError"),
    ("spans-audit-object-first", "world.py",
     'text.startswith("[\\n", len(head))',
     'text.startswith("[\\n{", len(head))',
     "a working text whose first event is not an object is not a working file"),
    ("save-writes-back-mutated", "world.py",
     "elif name in self._loaded and name not in self.audit.mutated:",
     "elif name in self._loaded:",
     "a changed directory, cloud or vault is written back as loaded"),
    ("save-keeps-no-written-text", "world.py",
     "                if name in self._loaded:\n                    self._loaded[name] =",
     "                if False:\n                    self._loaded[name] =",
     "after a save, the next save writes back the text loaded before it"),
    ("save-keeps-mutated", "world.py",
     "        self.audit.mutated.clear()\n",
     "",
     "every save re-encodes each store changed since the load"),
    ("load-lines-unchecked", "audit.py",
     "        self._unchecked = bool(self._offset)",
     "        self._unchecked = False",
     "a new event is numbered without checking the last loaded line's seq"),
    ("load-lines-nothing-covered", "audit.py",
     "        self._covered = self._offset\n",
     "        self._covered = 0\n",
     "a save takes the loaded lines for new ones"),
    ("loaded-no-count-check", "audit.py",
     "            if len(data) != count:",
     "            if False:",
     "loaded lines that hold more or fewer events than lines are taken"),
    ("check-last-seq-one-way", "audit.py",
     "            if last != len(self):",
     "            if last < len(self):",
     "loaded lines that end before their last event's seq are taken"),
    ("mutation-no-record", "audit.py",
     '        self.mutated.add(action.partition(".")[0])\n',
     "",
     "no store is named changed by its mutations"),
    ("take-stores-no-decode", "codec.py",
     "            if decode or name in decoded:",
     "            if name in decoded:",
     "a holder never decodes a store it holds"),
    ("take-stores-always-taken", "codec.py",
     "        self._taken = all(name in decoded for name in self.HOLDS)",
     "        self._taken = True",
     "a holder made before its stores are decoded never takes them"),
]


def tier1(src: Path, count: bool) -> tuple[list[str], str]:
    """The failing tests' ids (all of them with ``count``, else the first), and pytest's last line."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
            *([] if count else ["-x"]), "tests"]
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=240)
    except subprocess.TimeoutExpired:
        return ["(timed out)"], "timed out after 240 s"
    lines = done.stdout.splitlines()
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in lines
              if line.startswith(("FAILED ", "ERROR "))]
    if done.returncode != 0 and not failed:
        failed = [f"(pytest exited {done.returncode})"]
    return failed, lines[-1] if lines else done.stderr.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="Run only these mutants.")
    parser.add_argument("--count", action="store_true",
                        help="Run every test for each mutant and count the failures.")
    parser.add_argument("--out", type=Path, default=ROOT / "MUTANTS.json")
    args = parser.parse_args()
    unknown = set(args.only or ()) - {name for name, *_ in MUTANTS}
    if unknown:
        parser.error(f"no mutant named {', '.join(sorted(unknown))}")

    results, bad = [], 0
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        failed, last = tier1(src, count=False)
        if failed:
            print(f"the tests fail on the unchanged tree: {failed[0]} ({last})", file=sys.stderr)
            return 1
        for name, file, text, replacement, fault in MUTANTS:
            if args.only and name not in args.only:
                continue
            path = src / "mirrorplane" / file
            original = path.read_text(encoding="utf-8")
            if original.count(text) != 1:
                print(f"{name}: its text occurs {original.count(text)} times in {file}, not once",
                      file=sys.stderr)
                bad += 1
                continue
            path.write_text(original.replace(text, replacement), encoding="utf-8")
            begin = time.perf_counter()
            try:
                failed, last = tier1(src, args.count)
            finally:
                path.write_text(original, encoding="utf-8")
            status = "killed" if failed else "survived"
            bad += not failed
            result = {"name": name, "file": f"src/mirrorplane/{file}", "fault": fault,
                      "status": status, "first_failure": failed[0] if failed else None}
            if args.count:
                result["failed"] = len(failed)
            results.append(result)
            print(f"{name}: {status} in {time.perf_counter() - begin:.1f} s"
                  f"{f' by {failed[0]}' if failed else ''}; {last}")
    args.out.write_text(json.dumps({"mutants": results}, indent=2) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
