"""Independent brute-force oracles for access decisions, mirrors and membership.

Works from a raw exported snapshot (plain dicts and lists), re-deriving every
rule from first principles: vault ownership gates reads, token liveness comes
from key/account lifecycle, owners read and write their bucket, reader-group
members read only.  It deliberately shares no code with the engine so the two
can disagree.
"""

from __future__ import annotations

import json


def working_text(document: dict) -> str:
    """The working state file of ``document``: each top-level section and each audit event on its own line."""
    def dump(value) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)

    def section(key: str) -> str:
        if key == "audit" and document[key]:
            return "[\n" + ",\n".join(map(dump, document[key])) + "]"
        return dump(document[key])

    return "{" + ",\n".join(f"{dump(key)}:{section(key)}" for key in sorted(document)) + "}\n"


def export_with_histories(text: str) -> str:
    """An export as files written before key versions dropped ``state_history`` held it.

    Every version began active; it passed through retiring when ``retiring_since``
    is set, and ended invalid when its state is, so the list is put back from
    those two fields alone.
    """
    snap = json.loads(text)
    for entry in snap["vault"]["entries"]:
        for version in entry["versions"]:
            version["state_history"] = (
                ["active"]
                + ["retiring"] * (version["retiring_since"] is not None)
                + ["invalid"] * (version["state"] == "invalid")
            )
    return json.dumps(snap, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _accounts(snap: dict) -> dict[str, dict]:
    return {a["email"]: a for a in snap["cloud"]["accounts"]}


def _nodes(snap: dict) -> dict[str, dict]:
    return {n["id"]: n for n in snap["cloud"]["nodes"]}


def _vault(snap: dict) -> dict[str, dict]:
    return {e["account_email"]: e for e in snap["vault"]["entries"]}


def key_state(snap: dict, key_id: str) -> str | None:
    for entry in snap["vault"]["entries"]:
        for version in entry["versions"]:
            if version["key_id"] == key_id:
                return version["state"]
    return None


def expect_authenticate(snap: dict, caller: str, email: str) -> str:
    """'ok' | 'PermissionDenied' | 'AuthFailure' for a vault-key login."""
    entry = _vault(snap).get(email)
    if entry is None:
        return "AuthFailure"
    if entry["owner_principal"] != caller:
        return "PermissionDenied"
    if not any(v["state"] == "active" for v in entry["versions"]):
        return "AuthFailure"
    account = _accounts(snap).get(email)
    if account is None or account["status"] != "active":
        return "AuthFailure"
    return "ok"


def expect_impersonate(snap: dict, workspace_name: str, email: str) -> str:
    """'ok' | 'PermissionDenied' | 'AuthFailure' for an ActAs token mint."""
    account = _accounts(snap).get(email)
    if account is None:
        return "PermissionDenied"
    if account["status"] != "active":
        return "AuthFailure"
    node = _nodes(snap)[email]
    granted = any(
        b["role"] == "act-as" and b["principal"] == f"workspace:{workspace_name}"
        for b in node["bindings"]
    )
    if not granted:
        return "PermissionDenied"
    entry = _vault(snap).get(email)
    if entry is None or not any(v["state"] == "active" for v in entry["versions"]):
        return "AuthFailure"
    return "ok"


def expect_authorize(
    snap: dict, subject_email: str, minted_from: str, bucket_id: str, action: str
) -> tuple[str, str]:
    """(decision, reason) for one (token, bucket, action) triple.

    Account liveness is checked before key liveness, matching the enumerated
    deny-reason order.
    """
    account = _accounts(snap).get(subject_email)
    if account is None or account["status"] != "active":
        return ("deny", "DisabledAccount")
    state = key_state(snap, minted_from)
    if state not in ("active", "retiring"):
        return ("deny", "InvalidToken")

    nodes = _nodes(snap)
    bucket = nodes[bucket_id]
    subject = f"serviceAccount:{subject_email}"
    if any(
        b["role"] == "bucket-owner" and b["principal"] == subject
        for b in bucket["bindings"]
    ):
        return ("allow", "Owner")
    if action == "read":
        for binding in bucket["bindings"]:
            if binding["role"] != "bucket-reader":
                continue
            if not binding["principal"].startswith("group:"):
                continue
            group = nodes.get(binding["principal"][len("group:"):])
            if group is None:
                continue
            if any(
                b["role"] == "group-member" and b["principal"] == subject
                for b in group["bindings"]
            ):
                return ("allow", "ReaderGroup")
    return ("deny", "NotAuthorized")


def expect_reader_members(snap: dict, ldap_group: str) -> set[str]:
    """Cloud reader membership a correct sync must produce for one pair."""
    groups = {g["name"]: g for g in snap["directory"]["groups"]}
    accounts = _accounts(snap)
    members = set()
    for principal in groups[ldap_group]["members"]:
        for email, account in accounts.items():
            if account["source_principal"] == principal and account["status"] == "active":
                members.add(f"serviceAccount:{email}")
    return members


def cloud_group_members(snap: dict, cloud_group: str) -> set[str]:
    node = _nodes(snap)[cloud_group]
    return {
        b["principal"] for b in node["bindings"] if b["role"] == "group-member"
    }


def expect_active_mirror(snap: dict, source_principal: str) -> str | None:
    """The source's Active mirror by a sorted scan: the lowest such email, or None."""
    emails = sorted(
        account["email"]
        for account in snap["cloud"]["accounts"]
        if account["source_principal"] == source_principal and account["status"] == "active"
    )
    return emails[0] if emails else None


def expect_member(snap: dict, group: str, principal: str) -> bool:
    """Whether the group's serialized member list holds the principal."""
    for record in snap["directory"]["groups"]:
        if record["name"] == group:
            return principal in record["members"]
    return False


def expect_children(snap: dict, node_id: str) -> list[str]:
    """The ids of the nodes whose parent is ``node_id``, by a scan, ordered by (kind, id)."""
    nodes = sorted(snap["cloud"]["nodes"], key=lambda node: (node["kind"], node["id"]))
    return [node["id"] for node in nodes if node["parent"] == node_id]
