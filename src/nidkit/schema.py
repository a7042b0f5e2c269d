"""Feature schema for NSL-KDD connection records.

The 41 features fall into three groups: 9 basic TCP/IP connection
attributes, 13 content features describing suspicious payload behaviour,
and 19 traffic features computed over a 100-connection window. The
column ordering below (the common KDDTrain+/KDDTest+ dump order) is
pinned; 1-based indices are ``index + 1``, so feature 20 is
``num_outbound_cmds`` and feature 21 is ``is_host_login``.
"""

from __future__ import annotations

from dataclasses import dataclass

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"
BINARY = "binary"

BASIC = "basic"
CONTENT = "content"
TRAFFIC = "traffic"


@dataclass(frozen=True)
class FeatureSpec:
    index: int
    name: str
    kind: str
    group: str


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature descriptions for one connection record."""

    entries: tuple[FeatureSpec, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != 41:
            raise ValueError(f"schema must have 41 entries, got {len(self.entries)}")
        cats = [e.name for e in self.entries if e.kind == CATEGORICAL]
        if cats != ["protocol_type", "service", "flag"]:
            raise ValueError(f"categorical features must be protocol_type/service/flag, got {cats}")
        counts = {BASIC: 0, CONTENT: 0, TRAFFIC: 0}
        for e in self.entries:
            counts[e.group] += 1
        if counts != {BASIC: 9, CONTENT: 13, TRAFFIC: 19}:
            raise ValueError(f"bad group counts: {counts}")
        for i, e in enumerate(self.entries):
            if e.index != i:
                raise ValueError(f"entry {e.name} has index {e.index}, expected {i}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    @property
    def categorical_indices(self) -> tuple[int, ...]:
        return tuple(e.index for e in self.entries if e.kind == CATEGORICAL)

    @property
    def numeric_indices(self) -> tuple[int, ...]:
        return tuple(e.index for e in self.entries if e.kind != CATEGORICAL)

    def index_of(self, name: str) -> int:
        for e in self.entries:
            if e.name == name:
                return e.index
        raise KeyError(f"unknown feature: {name!r}")


def _build_default() -> FeatureSchema:
    rows = [
        # name, kind, group
        ("duration", CONTINUOUS, BASIC),
        ("protocol_type", CATEGORICAL, BASIC),
        ("service", CATEGORICAL, BASIC),
        ("flag", CATEGORICAL, BASIC),
        ("src_bytes", CONTINUOUS, BASIC),
        ("dst_bytes", CONTINUOUS, BASIC),
        ("land", BINARY, BASIC),
        ("wrong_fragment", CONTINUOUS, BASIC),
        ("urgent", CONTINUOUS, BASIC),
        ("hot", CONTINUOUS, CONTENT),
        ("num_failed_logins", CONTINUOUS, CONTENT),
        ("logged_in", BINARY, CONTENT),
        ("num_compromised", CONTINUOUS, CONTENT),
        ("root_shell", BINARY, CONTENT),
        ("su_attempted", CONTINUOUS, CONTENT),
        ("num_root", CONTINUOUS, CONTENT),
        ("num_file_creations", CONTINUOUS, CONTENT),
        ("num_shells", CONTINUOUS, CONTENT),
        ("num_access_files", CONTINUOUS, CONTENT),
        ("num_outbound_cmds", CONTINUOUS, CONTENT),
        ("is_host_login", BINARY, CONTENT),
        ("is_guest_login", BINARY, CONTENT),
        ("count", CONTINUOUS, TRAFFIC),
        ("srv_count", CONTINUOUS, TRAFFIC),
        ("serror_rate", CONTINUOUS, TRAFFIC),
        ("srv_serror_rate", CONTINUOUS, TRAFFIC),
        ("rerror_rate", CONTINUOUS, TRAFFIC),
        ("srv_rerror_rate", CONTINUOUS, TRAFFIC),
        ("same_srv_rate", CONTINUOUS, TRAFFIC),
        ("diff_srv_rate", CONTINUOUS, TRAFFIC),
        ("srv_diff_host_rate", CONTINUOUS, TRAFFIC),
        ("dst_host_count", CONTINUOUS, TRAFFIC),
        ("dst_host_srv_count", CONTINUOUS, TRAFFIC),
        ("dst_host_same_srv_rate", CONTINUOUS, TRAFFIC),
        ("dst_host_diff_srv_rate", CONTINUOUS, TRAFFIC),
        ("dst_host_same_src_port_rate", CONTINUOUS, TRAFFIC),
        ("dst_host_srv_diff_host_rate", CONTINUOUS, TRAFFIC),
        ("dst_host_serror_rate", CONTINUOUS, TRAFFIC),
        ("dst_host_srv_serror_rate", CONTINUOUS, TRAFFIC),
        ("dst_host_rerror_rate", CONTINUOUS, TRAFFIC),
        ("dst_host_srv_rerror_rate", CONTINUOUS, TRAFFIC),
    ]
    return FeatureSchema(
        entries=tuple(FeatureSpec(i, n, k, g) for i, (n, k, g) in enumerate(rows))
    )


DEFAULT_SCHEMA = _build_default()
