"""Feature schema for NSL-KDD connection records.

The 41 features fall into three groups: 9 basic TCP/IP connection
attributes (``duration`` to ``urgent``), 13 content features describing
suspicious payload behaviour (``hot`` to ``is_guest_login``), and 19
traffic features computed over a 100-connection window (``count`` to
``dst_host_srv_rerror_rate``). The commands read only the names, in the
pinned column order below (the common KDDTrain+/KDDTest+ dump order), and
which three are categorical. ``INDEX`` maps a name to its 0-based index,
and looking up an unknown name raises KeyError. 1-based indices are
``index + 1``, so feature 20 is ``num_outbound_cmds`` and feature 21 is
``is_host_login``.
"""

NAMES = (
    "duration", "protocol_type", "service", "flag", "src_bytes", "dst_bytes", "land",
    "wrong_fragment", "urgent",
    "hot", "num_failed_logins", "logged_in", "num_compromised", "root_shell",
    "su_attempted", "num_root", "num_file_creations", "num_shells", "num_access_files",
    "num_outbound_cmds", "is_host_login", "is_guest_login",
    "count", "srv_count", "serror_rate", "srv_serror_rate", "rerror_rate",
    "srv_rerror_rate", "same_srv_rate", "diff_srv_rate", "srv_diff_host_rate",
    "dst_host_count", "dst_host_srv_count", "dst_host_same_srv_rate",
    "dst_host_diff_srv_rate", "dst_host_same_src_port_rate", "dst_host_srv_diff_host_rate",
    "dst_host_serror_rate", "dst_host_srv_serror_rate", "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
)
INDEX = {name: j for j, name in enumerate(NAMES)}
CATEGORICAL_INDICES = tuple(INDEX[name] for name in ("protocol_type", "service", "flag"))
NUMERIC_INDICES = tuple(j for j in range(len(NAMES)) if j not in CATEGORICAL_INDICES)
