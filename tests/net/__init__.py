"""Shared helpers for the network-layer tests."""


def payload_id(payload):
    """``repr`` of a test payload with set members sorted, so a
    parametrized test's id does not depend on ``PYTHONHASHSEED``."""
    if isinstance(payload, frozenset) and payload:
        members = sorted(payload_id(member) for member in payload)
        return "frozenset({" + ", ".join(members) + "})"
    if isinstance(payload, dict):
        items = (f"{payload_id(k)}: {payload_id(v)}" for k, v in payload.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(payload, list):
        return "[" + ", ".join(payload_id(item) for item in payload) + "]"
    if type(payload) is tuple:
        inner = ", ".join(payload_id(item) for item in payload)
        return f"({inner},)" if len(payload) == 1 else f"({inner})"
    return repr(payload)
