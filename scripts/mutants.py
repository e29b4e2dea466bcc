"""Run tier-1 tests against planted faults, each mutant against the test files named for it.

Each mutant is one exact-text replacement in one file of ``src/mirrorplane``,
and names the tier-1 test files (under ``tests/``) that must kill it.  The
script copies ``src/`` to a temporary directory and first runs all of tier-1
on the unchanged copy, which must pass, so a broken tree does not read as
every mutant killed.  Then, for each mutant, it applies the replacement there
and runs the mutant's test files on the copy (``PYTHONPATH`` set to it),
stopping at the first failure.  A mutant is *killed* when a test fails and
*survives* when all pass.  The results go to ``MUTANTS.json``: each mutant's
file, its test files, its status and the first failing test.

The script fails (exit 1) when a mutant's text no longer occurs exactly once
in its file, so the list follows the code, or when a mutant survives.
``--count`` runs every test of the mutant's files and records how many fail
or error; ``--only`` runs the named mutants.  The last line gives the sweep's
wall time.

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

# (name, file under src/mirrorplane, text, replacement, the tier-1 test files that must
# kill it, what the fault is)
MUTANTS = [
    # -- a store's first decode and the working text
    ("getattr-no-malformed", "world.py",
     "            with malformed(key):\n                store.load_state(",
     "            if key:\n                store.load_state(",
     "test_persistence.py",
     "a store that fails to decode raises its own error, not a SchemaError at its section"),
    ("getattr-no-setattr", "world.py",
     "        setattr(self, name, store)\n",
     "",
     "test_verify.py",
     "every read of a store makes or decodes it again, so a change to it is lost"),
    ("working-text-audit-one-line", "world.py",
     '"[\\n" + ",\\n".join(map(compact_json, events))',
     '"[\\n" + ",".join(map(compact_json, events))',
     "test_verify.py",
     "the working text of a document puts its events on one line"),
    ("working-text-any-audit", "world.py",
     "    if not isinstance(events, list):\n        with malformed(",
     "    if False:\n        with malformed(",
     "test_persistence.py",
     "an audit that is not a list is taken"),
    ("working-text-no-missing-key", "world.py",
     '            raise SchemaError(f"missing required key (at /{key})")',
     "            continue",
     "test_persistence.py",
     "a document without a section fails with a KeyError"),
    ("spans-audit-object-first", "world.py",
     'data.startswith(b"[\\n", len(head))',
     'data.startswith(b"[\\n{", len(head))',
     "test_world_io.py",
     "a working text whose first event is not an object is not a working file"),
    ("spans-any-audit", "world.py",
     "    if not empty and not (data.startswith(",
     "    if False and not (data.startswith(",
     "test_persistence.py",
     "an audit on one line is read as a working file's audit, one event a line"),
    ("loads-no-utf8-check", "world.py",
     "        elif not data.isascii():\n            str(data, ",
     "        elif False:\n            str(data, ",
     "test_persistence.py",
     "a working file with a byte that is not UTF-8 loads, and fails only where it is decoded"),
    ("loads-fallback-parses-bytes", "world.py",
     'json.loads(str(data, "utf-8"))',
     "json.loads(data)",
     "test_persistence.py",
     "a file that is not a working file is parsed as bytes, so UTF-16 with a byte-order mark loads"),
    ("parse-at-takes-trailing-text", "codec.py",
     "    if end != len(text):",
     "    if False:",
     "test_persistence.py",
     "a section with text after its value, such as a clock line of 0 6, loads as its first value"),
    ("parse-at-no-whole-text-error", "codec.py",
     '        text, end = str(data, "utf-8"), len(str(view[:start], "utf-8"))\n',
     "        end = max(end, 0)\n",
     "test_persistence.py",
     "a section that does not parse reports its error at a place in its own line, not in the file"),
    # -- the save rule: which stores a save encodes, and the world's change mark
    ("save-changed-since-load", "world.py",
     "for event in self.audit.since_load()[self._written:]",
     "for event in self.audit.since_load()",
     "test_persistence.py",
     "every save re-encodes each audited store changed since the load, not since the last save"),
    ("save-written-not-advanced", "world.py",
     "        self._written = self.audit.emitted()\n",
     "",
     "test_persistence.py",
     "a save does not advance its count of written events, so the next re-encodes what it wrote"),
    ("save-writes-back-decoded-small-store", "world.py",
     "(name not in vars(self) or name in _AUDITED and name not in changed)",
     "(name not in vars(self) or name not in changed)",
     "test_cli_output.py",
     "a decoded onboarder, tokens, reconciler or authz is written back as loaded"),
    ("save-encodes-undecoded-small-store", "world.py",
     "(name not in vars(self) or name in _AUDITED and name not in changed)",
     "(name in _AUDITED and name not in changed)",
     "test_persistence.py",
     "an onboarder, tokens, reconciler or authz never decoded is decoded and encoded by a save"),
    ("save-changed-any-event", "world.py",
     "                   if event.category is Category.MUTATION}",
     "                   }",
     "test_persistence.py",
     "a decision or control event names a store changed, so a vault read re-encodes the vault"),
    ("mark-no-events", "world.py",
     "        return self.audit.emitted(), self.clock,",
     "        return 0, self.clock,",
     "test_cli_output.py",
     "a command whose only change is an audit event is not saved"),
    ("mark-no-clock", "world.py",
     "self.audit.emitted(), self.clock, getattr(",
     "self.audit.emitted(), 0, getattr(",
     "test_cli_output.py",
     "a clock advance is not saved"),
    ("mark-no-ticks", "world.py",
     'getattr(vars(self).get("reconciler"), "ticks_run", 0)',
     "0",
     "test_persistence.py",
     "a tick that changes nothing else is not saved"),
    ("save-keeps-no-written-text", "world.py",
     "                if name in self._loaded and name in _AUDITED:",
     "                if False:",
     "test_persistence.py",
     "after a save, the next save writes back the text loaded before it"),
    # -- the audit's loaded lines and its count
    ("load-lines-unchecked", "audit.py",
     '        self._unchecked = stop - start > len(b"[]")',
     "        self._unchecked = False",
     "test_persistence.py",
     "a new event is numbered without checking the last loaded line's seq"),
    ("count-nothing-covered", "audit.py",
     "            self._covered = self._offset = self._data.count(",
     "            self._covered, self._offset = 0, self._data.count(",
     "test_persistence.py",
     "a save takes the loaded lines for new ones"),
    ("loaded-no-count-check", "audit.py",
     "            if len(data) != count:",
     "            if False:",
     "test_persistence.py",
     "loaded lines that hold more or fewer events than lines are taken"),
    ("check-last-seq-one-way", "audit.py",
     "            if last != len(self):",
     "            if last < len(self):",
     "test_persistence.py",
     "loaded lines that end before their last event's seq are taken"),
    ("first-emit-skips-count", "audit.py",
     'last = self._loaded(1)[0]["seq"] if self._count() else',
     'last = self._loaded(1)[0]["seq"] if self._offset else',
     "test_persistence.py",
     "the first emit after a load takes the loaded lines, not counted yet, for none"),
    ("len-skips-count", "audit.py",
     "        return self._count() + len(self._events)",
     "        return self._offset + len(self._events)",
     "test_persistence.py",
     "len reads no loaded event until something else has counted the loaded lines"),
    ("mark-counts-loaded-lines", "audit.py",
     "        return len(self._events) - (self._covered or 0) + self._offset",
     "        return len(self)",
     "test_persistence.py",
     "a command's mark counts every loaded audit line, so a read-only command pays for the count"),
    # -- every audit emission, dropped
    ("leave-group-no-event", "directory.py",
     '            self._audit.mutation("directory.leave_group", f"{group_name}:{principal}")',
     "            pass",
     "test_properties.py",
     "a member leaves a group with no event, so a save writes back the group as loaded"),
    ("unbind-role-no-event", "cloud.py",
     '        self._audit.mutation(f"cloud.unbind_role.{role.value}", f"{node_id}:{principal}")',
     "        pass",
     "test_reconciler.py",
     "a binding is removed with no event, so a save writes back the cloud as loaded"),
    ("revoke-key-no-event", "vault.py",
     '                self._audit.mutation("vault.revoke_key", version.key_id)',
     "                pass",
     "test_persistence.py",
     "a key is revoked with no event, so a save writes back the vault as loaded"),
    ("add-principal-no-event", "directory.py",
     '        self._audit.mutation("directory.add_principal", name)',
     "        pass",
     "test_acceptance.py",
     "a principal is added with no event"),
    ("add-group-no-event", "directory.py",
     '        self._audit.mutation("directory.add_group", name)',
     "        pass",
     "test_audit.py",
     "a group is added with no event"),
    ("join-group-no-event", "directory.py",
     '            self._audit.mutation("directory.join_group", f"{group_name}:{principal}")',
     "            pass",
     "test_acceptance.py",
     "a member joins a group with no event"),
    ("remove-principal-no-event", "directory.py",
     '        self._audit.mutation("directory.remove_principal", name)',
     "        pass",
     "test_cli_output.py",
     "a principal is removed with no event"),
    ("create-node-no-event", "cloud.py",
     '        self._audit.mutation(f"cloud.create_node.{kind.value}", node_id)',
     "        pass",
     "test_cli_output.py",
     "a node is created with no event"),
    ("create-account-no-event", "cloud.py",
     '        self._audit.mutation("cloud.create_service_account", email)',
     "        pass",
     "test_reconciler.py",
     "a service account is created with no event"),
    ("bind-role-no-event", "cloud.py",
     '        self._audit.mutation(f"cloud.bind_role.{role.value}", f"{node_id}:{principal}")',
     "        pass",
     "test_acceptance.py",
     "a role is bound with no event"),
    ("disable-account-no-event", "cloud.py",
     '        self._audit.mutation("cloud.disable_service_account", email)',
     "        pass",
     "test_reconciler.py",
     "a service account is disabled with no event"),
    ("set-quota-no-event", "cloud.py",
     '        self._audit.mutation("cloud.set_quota", f"{project}:{max_service_accounts}")',
     "        pass",
     "test_persistence.py",
     "a quota is set with no event"),
    ("store-key-no-event", "vault.py",
     '        self._audit.mutation("vault.store_key", version.key_id)',
     "        pass",
     "test_reconciler.py",
     "a key is stored with no event"),
    ("expire-key-no-event", "vault.py",
     '                    self._audit.mutation("vault.expire_key", version.key_id)',
     "                    pass",
     "test_reconciler.py",
     "a key expires with no event"),
    ("attempt-no-denial", "audit.py",
     '            self.decision(actor, action, target, allowed=False)',
     "            pass",
     "test_audit.py",
     "a denied access attempt is not audited"),
    ("attempt-no-success", "audit.py",
     '        self.decision(actor, action, attempt.target, allowed=True)',
     "        pass",
     "test_audit.py",
     "a successful access attempt is not audited"),
    ("authorize-no-decision", "authz.py",
     '        self._audit.decision(actor, f"authorize.{action.value}", bucket.id, decision.allowed)',
     "        pass",
     "test_audit.py",
     "an authorization decision is not audited"),
    ("reconcile-no-abort", "reconciler.py",
     '            self._audit.control("reconcile.abort", SOURCE_OF_TRUTH_GROUP)',
     "            pass",
     "test_reconciler.py",
     "a tick aborted for a missing source group is not audited"),
    ("reconcile-no-reject", "reconciler.py",
     '            self._audit.control("reconcile.reject_underscore", principal)',
     "            pass",
     "test_reconciler.py",
     "a principal rejected for its name is not audited"),
    ("reconcile-no-error", "reconciler.py",
     '            self._audit.control("reconcile.error", principal)',
     "            pass",
     "test_reconciler.py",
     "a principal whose mirror failed is not audited"),
    # -- the derived indexes, rebuilt by load_state and never serialized
    ("load-no-active-index", "cloud.py",
     "                self._active.setdefault(acct.source_principal, set()).add(acct.email)",
     "                pass",
     "test_persistence.py",
     "a loaded cloud knows no active mirror"),
    ("load-no-child-index", "cloud.py",
     "            self._children.setdefault(node.parent, []).append(node.id)",
     "            pass",
     "test_verify.py",
     "a loaded cloud knows no node's children"),
    ("load-no-member-counts", "directory.py",
     "        self._counts = {g.name: Counter(g.members) for g in self._groups.values()}",
     "        self._counts = {g.name: Counter() for g in self._groups.values()}",
     "test_cli_output.py",
     "a loaded directory counts no group member"),
    # -- a holder takes every store it holds in each call that reads one
    ("take-stores-only-made", "codec.py",
     "                setattr(self, name, getattr(self._world, name))",
     "                setattr(self, name, vars(self._world).get(name))",
     "test_verify.py",
     "a holder takes only the stores its world has already made or decoded"),
    ("holder-made-taken", "codec.py",
     "        self._taken = False\n",
     "        self._taken = True\n",
     "test_verify.py",
     "a holder is made marked as having taken its stores, so it never takes them"),
    ("take-stores-skips-last", "codec.py",
     "            for name in self.HOLDS:",
     "            for name in self.HOLDS[:-1]:",
     "test_verify.py",
     "a holder takes every held store but its last"),
    ("select-project-no-take", "reconciler.py",
     "        self.take_stores()\n        key = folder, base",
     "        key = folder, base",
     "test_persistence.py",
     "select_project as a reconciler's first call reads a cloud it never took"),
    ("token-status-no-take", "authz.py",
     '        """None if the token is usable, else the Deny reason."""\n'
     "        self.take_stores()\n",
     '        """None if the token is usable, else the Deny reason."""\n',
     "test_persistence.py",
     "token_status as an engine's first call reads a cloud and a vault it never took"),
    ("store-key-no-take", "vault.py",
     "        self.take_stores()\n        if not self.directory.has_principal(owner):",
     "        if not self.directory.has_principal(owner):",
     "test_verify.py",
     "store_key reads a directory the vault never took"),
    ("provision-bucket-no-take", "onboarder.py",
     "        self.take_stores()\n        existing = self._mappings.get(principal)",
     "        existing = self._mappings.get(principal)",
     "test_verify.py",
     "provision_bucket as an onboarder's first call reads stores it never took"),
    # -- one check of each verify rule
    ("verify-no-member-check", "verify.py",
     "            if not world.directory.has_principal(member):",
     "            if False:",
     "test_verify.py",
     "ReferentialIntegrityViolation: a group member with no principal is not reported"),
    ("verify-no-name-check", "verify.py",
     "            if not isinstance(value, str) or not PRINCIPAL_NAME_RE.fullmatch(value):",
     "            if False:",
     "test_verify.py",
     "NameViolation: an illegal principal name or org unit is not reported"),
    ("verify-no-workspace-flag-check", "verify.py",
     "        if record.has_workspace_identity != expect:",
     "        if False:",
     "test_verify.py",
     "WorkspaceFlagViolation: a workspace flag that does not match the kind is not reported"),
    ("verify-no-organization-count", "verify.py",
     "    if len(orgs) != 1:",
     "    if False:",
     "test_verify.py",
     "TreeViolation: a tree with no organization, or two, is not reported"),
    ("verify-no-quota-drift", "verify.py",
     "        if actual != quota.current_count:",
     "        if False:",
     "test_verify.py",
     "QuotaViolation: a recorded count that differs from the accounts is not reported"),
    ("verify-no-two-active-mirrors", "verify.py",
     "            if acct.source_principal in sources:",
     "            if False:",
     "test_verify.py",
     "BijectionViolation: two active mirrors of one source are not reported"),
    ("verify-no-foreign-actas", "verify.py",
     "        if binding.principal != workspace_principal(acct.source_principal):",
     "        if False:",
     "test_verify.py",
     "ActAsViolation: an ActAs grant to another principal is not reported"),
    ("verify-no-lockdown", "verify.py",
     '                and binding.principal.startswith("serviceAccount:")):',
     "                and False):",
     "test_verify.py",
     "LockdownViolation: a mirror's grant on the identity side of the tree is not reported"),
    ("verify-no-single-active", "verify.py",
     "        if len(active) > 1:",
     "        if False:",
     "test_verify.py",
     "SingleActiveViolation: two active versions of one key are not reported"),
    ("verify-no-vault-owner", "verify.py",
     "            if acct.source_principal != entry.owner_principal:",
     "            if False:",
     "test_verify.py",
     "OwnershipViolation: a vault owner that is not the mirror's source is not reported"),
    ("verify-no-invalidating-event", "verify.py",
     "            if (version.state is KeyState.INVALID) != (version.key_id in invalidated):",
     "            if False:",
     "test_verify.py",
     "LifecycleViolation: a key invalid with no expire or revoke event, or set back from one, "
     "is not reported"),
    ("verify-revoke-not-invalidating", "verify.py",
     '("vault.expire_key", "vault.revoke_key")',
     '("vault.expire_key",)',
     "test_verify.py",
     "LifecycleViolation: a revoked key is taken as never invalidated"),
    ("verify-no-active-retiring-since", "verify.py",
     "            if version.state is KeyState.ACTIVE and version.retiring_since is not None:",
     "            if False:",
     "test_verify.py",
     "LifecycleViolation: an active key with retiring_since set is not reported"),
    ("verify-no-secret-reuse", "verify.py",
     "                if first != version.key_id:",
     "                if False:",
     "test_verify.py",
     "SecretReuseViolation: one secret in two key versions is not reported"),
    ("verify-no-bucket-round-trip", "verify.py",
     "        if parsed != mapping.principal:",
     "        if False:",
     "test_verify.py",
     "MappingViolation: a bucket id that does not name its principal is not reported"),
    ("bucket-name-any", "onboarder.py",
     '    if not name or "." in name:',
     "    if False:",
     "test_cli_output.py",
     "MappingViolation: a bucket id of an empty or dotted name round-trips"),
    ("verify-no-reader-grant", "verify.py",
     "        if reader_grants != [(pair.bucket_id, Role.BUCKET_READER)]:",
     "        if False:",
     "test_verify.py",
     "ReaderGroupViolation: a reader group without exactly one reader grant is not reported"),
    ("verify-no-id-reuse", "verify.py",
     "    if again is not None:",
     "    if False:",
     "test_verify.py",
     "IdReuseViolation: a counter that would issue a held id again is not reported"),
    ("verify-no-token-subject", "verify.py",
     "        if not world.cloud.has_account(token.subject):",
     "        if False:",
     "test_verify.py",
     "TokenViolation: a token of an unknown subject is not reported"),
    ("verify-no-audit-gap", "verify.py",
     "        if event.seq != i:",
     "        if False:",
     "test_verify.py",
     "AuditGapViolation: an audit whose seq skips is not reported"),
    ("verify-no-keyless-mirror", "verify.py",
     "        if world.vault.active_version(email) is None:",
     "        if False:",
     "test_faults.py",
     "KeylessMirror: an active mirror without an active key is not reported"),
    ("verify-no-rotation-age", "verify.py",
     "        if world.clock - version.created_at >= world.config.rotation_age:",
     "        if False:",
     "test_verify.py",
     "RotationViolation: an active key past rotation_age is not reported"),
    # -- the paper's access rules
    ("reader-group-any-role", "authz.py",
     "            if binding.role is not Role.BUCKET_READER:\n                continue\n",
     "",
     "test_authz.py",
     "a group bound to a bucket in any role makes its members readers of the bucket"),
    # -- error paths that only a hand-edited state file reaches
    ("authenticate-any-account", "authz.py",
     "            if not self._account_is_active(account_email):",
     "            if False:",
     "test_cli_output.py",
     "a disabled account whose key is still active mints a token"),
]


def tier1(src: Path, count: bool, files: tuple[str, ...] = ()) -> tuple[list[str], str]:
    """The failing tests' ids (all of them with ``count``, else the first), and pytest's last line.

    ``files`` are test files under ``tests/``; none runs all of tier-1.
    """
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
            *([] if count else ["-x"]), *([f"tests/{f}" for f in files] or ["tests"])]
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
                        help="Run every test of each mutant's files and count the failures.")
    parser.add_argument("--out", type=Path, default=ROOT / "MUTANTS.json")
    args = parser.parse_args()
    unknown = set(args.only or ()) - {name for name, *_ in MUTANTS}
    if unknown:
        parser.error(f"no mutant named {', '.join(sorted(unknown))}")

    results, bad, sweep = [], 0, time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        failed, last = tier1(src, count=False)
        if failed:
            print(f"the tests fail on the unchanged tree: {failed[0]} ({last})", file=sys.stderr)
            return 1
        for name, file, text, replacement, files, fault in MUTANTS:
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
                failed, last = tier1(src, args.count, tuple(files.split()))
            finally:
                path.write_text(original, encoding="utf-8")
            status = "killed" if failed else "survived"
            bad += not failed
            result = {"name": name, "file": f"src/mirrorplane/{file}", "tests": files,
                      "fault": fault, "status": status,
                      "first_failure": failed[0] if failed else None}
            if args.count:
                result["failed"] = len(failed)
            results.append(result)
            print(f"{name}: {status} in {time.perf_counter() - begin:.1f} s"
                  f"{f' by {failed[0]}' if failed else ''}; {last}")
    args.out.write_text(json.dumps({"mutants": results}, indent=2) + "\n", encoding="utf-8")
    print(f"{len(results)} mutants, {bad} failing the sweep, "
          f"in {time.perf_counter() - sweep:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
