"""Synthetic NSL-KDD data for tests: a small deterministic dataset with
one Gaussian blob per category, and a writer for the 43-field layout."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from nidkit.dataset import CATEGORIES, LabeledDataset, parse_kdd_lines
from nidkit.schema import BINARY, CATEGORICAL, DEFAULT_SCHEMA


# Per-category blob centers on a handful of discriminative features; all
# other continuous features sit near zero. Values chosen so the five
# blobs stay well separated after z-scoring.
_FIXTURE_CENTERS: dict[str, dict[str, float]] = {
    "Normal": {"duration": 50, "src_bytes": 1000, "dst_bytes": 2000, "count": 5,
               "srv_count": 6, "serror_rate": 0.01, "rerror_rate": 0.02,
               "dst_host_count": 30, "same_srv_rate": 0.9},
    "DoS": {"duration": 2, "src_bytes": 200, "dst_bytes": 0, "count": 400,
            "srv_count": 300, "serror_rate": 0.95, "rerror_rate": 0.02,
            "dst_host_count": 250, "same_srv_rate": 0.05},
    "Probe": {"duration": 8, "src_bytes": 40, "dst_bytes": 10, "count": 150,
              "srv_count": 20, "serror_rate": 0.3, "rerror_rate": 0.7,
              "dst_host_count": 180, "same_srv_rate": 0.2,
              "dst_host_srv_diff_host_rate": 0.8, "diff_srv_rate": 0.6},
    "R2L": {"duration": 400, "src_bytes": 3000, "dst_bytes": 500, "count": 3,
            "srv_count": 3, "serror_rate": 0.02, "rerror_rate": 0.05,
            "dst_host_count": 10, "hot": 20, "num_failed_logins": 4,
            "same_srv_rate": 0.8},
    "U2R": {"duration": 800, "src_bytes": 500, "dst_bytes": 300, "count": 2,
            "srv_count": 2, "serror_rate": 0.02, "rerror_rate": 0.02,
            "dst_host_count": 5, "hot": 8, "num_root": 8,
            "num_file_creations": 5, "same_srv_rate": 0.85},
}

_FIXTURE_CATEGORICALS: dict[str, tuple[str, str, str]] = {
    "Normal": ("tcp", "http", "SF"),
    "DoS": ("icmp", "ecr_i", "S0"),
    "Probe": ("tcp", "private", "REJ"),
    "R2L": ("tcp", "ftp", "SF"),
    "U2R": ("tcp", "telnet", "SF"),
}

_FIXTURE_ALT_CATEGORICALS = ("udp", "domain_u", "RSTR")

_FIXTURE_LABELS: dict[str, tuple[str, ...]] = {
    "Normal": ("normal",),
    "DoS": ("neptune", "smurf", "back"),
    "Probe": ("satan", "nmap", "portsweep"),
    "R2L": ("guess_passwd", "warezclient"),
    "U2R": ("rootkit", "buffer_overflow"),
}

_FIXTURE_BINARY_ON: dict[str, tuple[str, ...]] = {
    "Normal": ("logged_in",),
    "DoS": (),
    "Probe": (),
    "R2L": ("logged_in", "is_guest_login"),
    "U2R": ("logged_in", "root_shell"),
}


def make_fixture(n_per_class: int, seed: int) -> LabeledDataset:
    """Deterministic schema-valid dataset: one Gaussian blob per category."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    lines: list[str] = []
    for cat in CATEGORIES:
        centers = _FIXTURE_CENTERS[cat]
        labels = _FIXTURE_LABELS[cat]
        on = set(_FIXTURE_BINARY_ON[cat])
        for i in range(n_per_class):
            fields: list[str] = []
            use_alt = rng.random() < 0.15
            categorical = dict(zip(("protocol_type", "service", "flag"),
                                   _FIXTURE_ALT_CATEGORICALS if use_alt
                                   else _FIXTURE_CATEGORICALS[cat]))
            for e in DEFAULT_SCHEMA.entries:
                if e.kind == CATEGORICAL:
                    fields.append(categorical[e.name])
                elif e.kind == BINARY:
                    fields.append("1" if e.name in on else "0")
                else:
                    center = centers.get(e.name, 0.0)
                    sigma = max(0.02 * center, 0.01) if center else 0.0
                    value = max(0.0, center + sigma * rng.standard_normal())
                    if e.name == "num_outbound_cmds":
                        value = 0.0  # constant column, as in the real dumps
                    fields.append(f"{value:.3f}")
            difficulty = int(rng.integers(0, 22))
            lines.append(",".join(fields) + f",{labels[i % len(labels)]},{difficulty}")
    return parse_kdd_lines(lines, split="fixture")


def write_kdd_file(ds: LabeledDataset, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in ds.records:
            fh.write(record.to_line() + "\n")
