"""Vectorized synthetic NSL-KDD generator for the benchmark.

Writes files in the 43-field KDDTrain+/KDDTest+ layout (41 features, the
attack name, a difficulty 0-21) at the published row counts and class
skew of Tavallaee et al. (CISDA 2009). The data is built to behave like
the real dump rather than to be easy:

* every attack name is its own sub-cluster around its category, and
  categories overlap, so trees grow deep and networks do not separate
  the classes perfectly;
* a share of rows carries the features of another category under its
  own label (label noise);
* ``num_outbound_cmds`` is constant zero, as in the real dump;
* the test file draws some service and flag values never seen in
  training, and test-only attack names from the bundled taxonomy.

The category structure (centres, per-name offsets) is fixed; the seed
drives the sampling only, so one seed always yields the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# --- published split composition ---------------------------------------------

TRAIN_COUNTS: dict[str, dict[str, int]] = {
    "Normal": {"normal": 67343},
    "DoS": {"neptune": 41214, "smurf": 2646, "back": 956, "teardrop": 892,
            "pod": 201, "land": 18},
    "Probe": {"satan": 3633, "ipsweep": 3599, "portsweep": 2931, "nmap": 1493},
    "R2L": {"warezclient": 890, "guess_passwd": 53, "warezmaster": 20, "imap": 11,
            "ftp_write": 8, "multihop": 7, "phf": 4, "spy": 2},
    "U2R": {"buffer_overflow": 30, "rootkit": 10, "loadmodule": 9, "perl": 3},
}

# KDDTest+ class totals (9711 / 7458 / 2421 / 2754 / 200), with the
# test-only attack names of the bundled taxonomy mixed in.
TEST_COUNTS: dict[str, dict[str, int]] = {
    "Normal": {"normal": 9711},
    "DoS": {"neptune": 4657, "apache2": 737, "processtable": 685, "smurf": 665,
            "back": 359, "mailbomb": 293, "pod": 41, "teardrop": 12, "land": 7,
            "udpstorm": 2},
    "Probe": {"mscan": 996, "satan": 735, "saint": 319, "portsweep": 157,
              "ipsweep": 141, "nmap": 73},
    "R2L": {"guess_passwd": 1231, "warezmaster": 944, "snmpguess": 331,
            "snmpgetattack": 178, "multihop": 18, "named": 17, "sendmail": 14,
            "xlock": 9, "xsnoop": 4, "ftp_write": 3, "phf": 2, "httptunnel": 2,
            "imap": 1},
    "U2R": {"buffer_overflow": 60, "ps": 45, "rootkit": 39, "xterm": 39,
            "sqlattack": 6, "loadmodule": 6, "perl": 5},
}

CATEGORY_ORDER = ("Normal", "DoS", "Probe", "R2L", "U2R")

# --- feature layout -----------------------------------------------------------

# (name, kind) in the pinned dump order. Kinds: cat, bin, dur, bytes,
# small (rare event counts), cnt511, cnt255, rate, zero.
FEATURES: tuple[tuple[str, str], ...] = (
    ("duration", "dur"), ("protocol_type", "cat"), ("service", "cat"), ("flag", "cat"),
    ("src_bytes", "bytes"), ("dst_bytes", "bytes"), ("land", "bin"),
    ("wrong_fragment", "small"), ("urgent", "small"), ("hot", "small"),
    ("num_failed_logins", "small"), ("logged_in", "bin"), ("num_compromised", "small"),
    ("root_shell", "bin"), ("su_attempted", "small"), ("num_root", "small"),
    ("num_file_creations", "small"), ("num_shells", "small"), ("num_access_files", "small"),
    ("num_outbound_cmds", "zero"), ("is_host_login", "bin"), ("is_guest_login", "bin"),
    ("count", "cnt511"), ("srv_count", "cnt511"), ("serror_rate", "rate"),
    ("srv_serror_rate", "rate"), ("rerror_rate", "rate"), ("srv_rerror_rate", "rate"),
    ("same_srv_rate", "rate"), ("diff_srv_rate", "rate"), ("srv_diff_host_rate", "rate"),
    ("dst_host_count", "cnt255"), ("dst_host_srv_count", "cnt255"),
    ("dst_host_same_srv_rate", "rate"), ("dst_host_diff_srv_rate", "rate"),
    ("dst_host_same_src_port_rate", "rate"), ("dst_host_srv_diff_host_rate", "rate"),
    ("dst_host_serror_rate", "rate"), ("dst_host_srv_serror_rate", "rate"),
    ("dst_host_rerror_rate", "rate"), ("dst_host_srv_rerror_rate", "rate"),
)
INDEX = {name: i for i, (name, _) in enumerate(FEATURES)}

PROTOCOLS = ("tcp", "udp", "icmp")
TRAIN_SERVICES = (
    "http", "private", "domain_u", "smtp", "ftp_data", "ecr_i", "eco_i", "other",
    "telnet", "finger", "ftp", "auth", "urp_i", "pop_3", "Z39_50", "uucp", "courier",
    "bgp", "whois", "uucp_path", "iso_tsap", "time", "imap4", "nnsp", "vmnet",
    "urh_i", "domain", "ctf", "csnet_ns", "supdup", "discard", "http_443", "daytime",
    "gopher", "efs", "systat", "link", "exec", "hostnames", "name", "mtp", "echo",
    "klogin", "login", "ldap", "netbios_dgm", "sunrpc", "netbios_ssn", "netstat",
    "netbios_ns", "kshell", "nntp", "ssh", "sql_net", "IRC", "pop_2", "printer",
    "tim_i", "pm_dump", "red_i", "remote_job", "rje", "shell", "X11", "ntp_u", "tftp_u",
)
TEST_ONLY_SERVICES = ("aol", "harvest", "http_2784", "http_8001")
TRAIN_FLAGS = ("SF", "S0", "REJ", "RSTR", "RSTO", "SH", "S1", "S2", "S3", "OTH")
TEST_ONLY_FLAGS = ("RSTOS0",)

# Share of test rows given a service or flag value unseen in training.
UNSEEN_SHARE = 0.02
# Share of rows whose features come from another category (label noise).
NOISE_SHARE = {"train": 0.03, "test": 0.05}
# Per-row spread around a name's centre, in normalized [0, 1] units.
ROW_SIGMA = 0.18

# Hand-set category centres on the features that carry the signal in the
# real dump; every other numeric feature sits near zero.
_CATEGORY_LEVELS: dict[str, dict[str, float]] = {
    "Normal": {"duration": 0.15, "src_bytes": 0.55, "dst_bytes": 0.6, "logged_in": 0.75,
               "hot": 0.06, "count": 0.03, "srv_count": 0.04, "same_srv_rate": 0.95,
               "dst_host_count": 0.6, "dst_host_srv_count": 0.8,
               "dst_host_same_srv_rate": 0.8, "dst_host_same_src_port_rate": 0.1,
               "srv_diff_host_rate": 0.1, "num_compromised": 0.02, "num_root": 0.02,
               "num_file_creations": 0.02, "num_access_files": 0.02},
    "DoS": {"src_bytes": 0.2, "count": 0.5, "srv_count": 0.1, "serror_rate": 0.75,
            "srv_serror_rate": 0.75, "same_srv_rate": 0.15, "diff_srv_rate": 0.08,
            "dst_host_count": 0.95, "dst_host_srv_count": 0.1,
            "dst_host_same_srv_rate": 0.1, "dst_host_diff_srv_rate": 0.08,
            "dst_host_serror_rate": 0.75, "dst_host_srv_serror_rate": 0.75,
            "wrong_fragment": 0.08, "rerror_rate": 0.15, "dst_host_rerror_rate": 0.15},
    "Probe": {"duration": 0.05, "src_bytes": 0.08, "count": 0.2, "srv_count": 0.05,
              "rerror_rate": 0.45, "srv_rerror_rate": 0.45, "same_srv_rate": 0.35,
              "diff_srv_rate": 0.45, "dst_host_count": 0.7, "dst_host_srv_count": 0.1,
              "dst_host_diff_srv_rate": 0.55, "dst_host_same_src_port_rate": 0.55,
              "dst_host_rerror_rate": 0.45, "dst_host_srv_rerror_rate": 0.4,
              "srv_diff_host_rate": 0.3, "serror_rate": 0.1},
    "R2L": {"duration": 0.35, "src_bytes": 0.5, "dst_bytes": 0.3, "logged_in": 0.55,
            "hot": 0.35, "num_failed_logins": 0.2, "is_guest_login": 0.45,
            "count": 0.02, "srv_count": 0.02, "same_srv_rate": 0.85,
            "dst_host_count": 0.3, "dst_host_srv_count": 0.15,
            "dst_host_same_srv_rate": 0.5, "dst_host_same_src_port_rate": 0.3},
    "U2R": {"duration": 0.4, "src_bytes": 0.45, "dst_bytes": 0.45, "logged_in": 0.9,
            "hot": 0.3, "root_shell": 0.5, "num_root": 0.3, "num_file_creations": 0.3,
            "num_shells": 0.15, "num_compromised": 0.2, "su_attempted": 0.05,
            "count": 0.02, "srv_count": 0.02, "same_srv_rate": 0.9,
            "dst_host_count": 0.2, "dst_host_srv_count": 0.1,
            "dst_host_same_srv_rate": 0.35},
}
_CATEGORY_PROTOCOLS = {  # tcp, udp, icmp
    "Normal": (0.8, 0.17, 0.03), "DoS": (0.85, 0.02, 0.13), "Probe": (0.55, 0.12, 0.33),
    "R2L": (0.95, 0.05, 0.0), "U2R": (0.97, 0.03, 0.0),
}
_CATEGORY_FLAGS = {
    "Normal": {"SF": 0.93, "REJ": 0.03, "S0": 0.01, "RSTO": 0.01, "S1": 0.01, "OTH": 0.01},
    "DoS": {"S0": 0.72, "SF": 0.12, "REJ": 0.12, "RSTO": 0.02, "S3": 0.01, "SH": 0.01},
    "Probe": {"SF": 0.4, "REJ": 0.3, "RSTR": 0.15, "S0": 0.08, "SH": 0.05, "OTH": 0.02},
    "R2L": {"SF": 0.85, "RSTO": 0.08, "S1": 0.02, "S2": 0.02, "S3": 0.03},
    "U2R": {"SF": 0.92, "S1": 0.04, "RSTO": 0.04},
}
_STRUCTURE_SEED = 20091231  # fixes per-name offsets; not the workload seed


def _build_profiles() -> dict[str, dict]:
    """Per attack name: numeric centre, protocol, service and flag weights."""
    rng = np.random.default_rng(_STRUCTURE_SEED)
    names_by_cat: dict[str, list[str]] = {c: [] for c in CATEGORY_ORDER}
    for table in (TRAIN_COUNTS, TEST_COUNTS):
        for cat in CATEGORY_ORDER:
            for name in table[cat]:
                if name not in names_by_cat[cat]:
                    names_by_cat[cat].append(name)
    profiles: dict[str, dict] = {}
    n_feat = len(FEATURES)
    for cat in CATEGORY_ORDER:
        base = np.full(n_feat, 0.02)
        for fname, level in _CATEGORY_LEVELS[cat].items():
            base[INDEX[fname]] = level
        proto = np.array(_CATEGORY_PROTOCOLS[cat])
        flags = np.array([_CATEGORY_FLAGS[cat].get(f, 0.002) for f in TRAIN_FLAGS])
        service_base = rng.dirichlet(np.full(len(TRAIN_SERVICES), 0.15))
        for name in names_by_cat[cat]:
            centre = base.copy()
            moved = rng.random(n_feat) < 0.4
            centre[moved] += rng.normal(0.0, 0.15, size=int(moved.sum()))
            profiles[name] = {
                "category": cat,
                "centre": np.clip(centre, 0.0, 1.0),
                "protocol": proto,
                "flag": flags / flags.sum(),
                "service": 0.5 * service_base
                + 0.5 * rng.dirichlet(np.full(len(TRAIN_SERVICES), 0.1)),
            }
    return profiles


PROFILES = _build_profiles()

_RATE_TEXT = np.array([f"{k / 100:.2f}" for k in range(101)], dtype=object)
_INT_TEXT = np.array([str(k) for k in range(512)], dtype=object)


def _numeric_block(centre: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 41) float matrix; categorical columns are left at zero."""
    out = np.zeros((n, len(FEATURES)))
    latent = centre[None, :] + ROW_SIGMA * rng.standard_normal((n, len(FEATURES)))
    u = np.clip(latent, 0.0, 1.0)
    for j, (_, kind) in enumerate(FEATURES):
        col = u[:, j]
        if kind == "rate":
            out[:, j] = np.rint(col * 100.0)  # hundredths, formatted later
        elif kind == "cnt511":
            out[:, j] = np.rint(col * 511.0)
        elif kind == "cnt255":
            out[:, j] = np.rint(col * 255.0)
        elif kind == "bytes":
            out[:, j] = np.floor(np.expm1(col * 13.0) * (latent[:, j] > 0.05))
        elif kind == "dur":
            out[:, j] = np.floor(np.expm1(col * 9.0) * (latent[:, j] > 0.2))
        elif kind == "small":
            out[:, j] = rng.poisson(6.0 * centre[j] ** 2 * (1.0 + col))
        elif kind == "bin":
            out[:, j] = rng.random(n) < centre[j]
    return out


def _draw(weights: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.choice(weights.size, size=n, p=weights)


def generate(counts: dict[str, dict[str, int]], scale: float, split: str,
             rng: np.random.Generator) -> list[str]:
    """Rows of one file, shuffled, as 43-field text lines (no newline).

    Each attack name gets ``round(count * scale)`` rows, at least one, so
    small scales keep every category present.
    """
    blocks, protos, services, flags, labels, cats = [], [], [], [], [], []
    for cat in CATEGORY_ORDER:
        for name, count in counts[cat].items():
            n = max(1, round(count * scale))
            prof = PROFILES[name]
            blocks.append(_numeric_block(prof["centre"], n, rng))
            protos.append(_draw(prof["protocol"], n, rng))
            services.append(_draw(prof["service"], n, rng))
            flags.append(_draw(prof["flag"], n, rng))
            labels.append(np.full(n, name, dtype=object))
            cats.append(np.full(n, CATEGORY_ORDER.index(cat)))
    values = np.vstack(blocks)
    proto = np.array(PROTOCOLS, dtype=object)[np.concatenate(protos)]
    service = np.array(TRAIN_SERVICES, dtype=object)[np.concatenate(services)]
    flag = np.array(TRAIN_FLAGS, dtype=object)[np.concatenate(flags)]
    label = np.concatenate(labels)
    cat_id = np.concatenate(cats)
    n = values.shape[0]

    # label noise: a row keeps its label but takes another category's features
    noisy = rng.choice(n, size=round(n * NOISE_SHARE[split]), replace=False)
    donors = rng.integers(0, n, size=noisy.size)
    for _ in range(8):
        same = cat_id[donors] == cat_id[noisy]
        if not same.any():
            break
        donors[same] = rng.integers(0, n, size=int(same.sum()))
    keep = cat_id[donors] != cat_id[noisy]
    noisy, donors = noisy[keep], donors[keep]
    values[noisy] = values[donors]
    proto[noisy], service[noisy], flag[noisy] = proto[donors], service[donors], flag[donors]

    if split == "test":
        unseen = np.nonzero(rng.random(n) < UNSEEN_SHARE)[0]
        service[unseen] = np.array(TEST_ONLY_SERVICES, dtype=object)[
            rng.integers(0, len(TEST_ONLY_SERVICES), size=unseen.size)]
        unseen = np.nonzero(rng.random(n) < UNSEEN_SHARE / 2)[0]
        flag[unseen] = TEST_ONLY_FLAGS[0]

    difficulty = np.clip(21 - rng.poisson(np.where(cat_id == 0, 0.8, 3.0)), 0, 21)

    table = np.empty((n, 43), dtype=object)
    for j, (_, kind) in enumerate(FEATURES):
        if kind == "cat":
            continue
        col = values[:, j].astype(np.int64)
        if kind == "rate":
            table[:, j] = _RATE_TEXT[col]
        elif col.max() < _INT_TEXT.size:
            table[:, j] = _INT_TEXT[col]
        else:
            table[:, j] = col.astype(str)
    table[:, INDEX["protocol_type"]] = proto
    table[:, INDEX["service"]] = service
    table[:, INDEX["flag"]] = flag
    table[:, 41] = label
    table[:, 42] = difficulty.astype(str)
    table = table[rng.permutation(n)]
    return [",".join(row) for row in table.tolist()]


def write_split(path: Path, split: str, seed: int, scale: float = 1.0) -> int:
    """Write one file and return its row count."""
    counts = TRAIN_COUNTS if split == "train" else TEST_COUNTS
    entropy = [seed, 0 if split == "train" else 1, round(scale * 1000)]
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    lines = generate(counts, scale, split, rng)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


def subsample(src: Path, dst: Path, rows: int, seed: int) -> int:
    """Copy about ``rows`` lines of ``src``, in file order, drawn per category
    in proportion to its share (at least one row each), so every sample of
    one size holds the same class mix."""
    lines = src.read_text(encoding="utf-8").splitlines()
    category = {name: prof["category"] for name, prof in PROFILES.items()}
    cats = np.array([category[ln.rsplit(",", 2)[1]] for ln in lines], dtype=object)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2, rows]))
    frac = min(1.0, rows / len(lines))
    picks = []
    for cat in CATEGORY_ORDER:
        members = np.nonzero(cats == cat)[0]
        if members.size:
            take = min(members.size, max(1, round(members.size * frac)))
            picks.append(rng.choice(members, size=take, replace=False))
    pick = np.sort(np.concatenate(picks))
    dst.write_text("\n".join(lines[i] for i in pick) + "\n", encoding="utf-8")
    return int(pick.size)
