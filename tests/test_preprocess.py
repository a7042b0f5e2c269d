import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidkit.dataset import KddParseError, parse_kdd_lines
from nidkit.preprocess import (
    FittedPipeline,
    LabelCountEncoder,
    encode,
    fit_encoder,
    fit_pipeline,
    fit_standardizer,
    standardize,
)
from nidkit.schema import CATEGORICAL_INDICES, INDEX, NAMES

from .fixtures import kdd_line


def _ds_with_protocols(protos, services=None, flags=None):
    services = services or ["http"] * len(protos)
    flags = flags or ["SF"] * len(protos)
    lines = []
    for p, s, f in zip(protos, services, flags):
        fields = []
        for j, name in enumerate(NAMES):
            if name == "protocol_type":
                fields.append(p)
            elif name == "service":
                fields.append(s)
            elif name == "flag":
                fields.append(f)
            elif j in CATEGORICAL_INDICES:
                raise AssertionError
            else:
                fields.append("0")
        lines.append(",".join(fields) + ",normal,0")
    return parse_kdd_lines(lines, split="train")


def _oracle_codes(counts: dict) -> dict:
    """Independent sort-by-frequency oracle: codes 1..K ascending frequency."""
    ordered = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return {cat: i + 1 for i, (cat, _) in enumerate(ordered)}


def test_fit_encoder_frequency_codes():
    ds = _ds_with_protocols(["tcp", "tcp", "tcp", "udp", "udp", "icmp"])
    enc = fit_encoder(ds)
    expected = _oracle_codes({"tcp": 3, "udp": 2, "icmp": 1})
    assert expected == {"tcp": 3, "udp": 2, "icmp": 1}
    for cat, code in expected.items():
        assert enc.code("protocol_type", cat) == code
    assert enc.tables["protocol_type"]["tcp"] == (3, 3)


def test_fit_encoder_tie_breaks_lexicographically():
    ds = _ds_with_protocols(["tcp"] * 4, services=["b", "a", "a", "b"])
    enc = fit_encoder(ds)
    assert enc.code("service", "a") == 1
    assert enc.code("service", "b") == 2


def test_fit_encoder_single_category():
    ds = _ds_with_protocols(["tcp"] * 5)
    assert fit_encoder(ds).code("protocol_type", "tcp") == 1


def test_encode_seen_unseen_and_determinism():
    train = _ds_with_protocols(["tcp", "tcp", "udp"])
    enc = fit_encoder(train)
    test = _ds_with_protocols(["udp", "icmp"])
    j = INDEX["protocol_type"]
    m = encode(enc, test)
    assert m[0, j] == enc.code("protocol_type", "udp")
    assert m[1, j] == 0  # unseen -> reserved code
    assert (encode(enc, train) == encode(enc, train)).all()


def test_fit_standardizer_hand_values():
    s = fit_standardizer(np.array([[2.0], [4.0], [6.0]]))
    assert s.mu[0] == pytest.approx(4.0)
    assert s.sigma[0] == pytest.approx(np.sqrt(8.0 / 3.0), abs=1e-9)


def test_fit_standardizer_degenerate():
    s = fit_standardizer(np.array([[5.0], [5.0]]))
    assert s.mu[0] == 5.0 and s.sigma[0] == 0.0
    single = fit_standardizer(np.array([[3.0, 7.0]]))
    assert (single.sigma == 0).all()


def test_fit_standardizer_rejects_nonfinite():
    with pytest.raises(ValueError):
        fit_standardizer(np.array([[np.nan], [1.0]]))


def test_standardize_hand_values():
    matrix = np.array([[2.0], [4.0], [6.0]])
    s = fit_standardizer(matrix)
    z = standardize(s, matrix)[:, 0]
    assert z == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)
    assert standardize(s, np.array([[4.0]]))[0, 0] == 0.0


def test_standardize_zero_sigma_maps_to_zero():
    s = fit_standardizer(np.array([[5.0], [5.0]]))
    z = standardize(s, np.array([[123.0], [5.0]]))
    assert (z == 0).all()


def test_standardize_column_mismatch():
    s = fit_standardizer(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="column mismatch"):
        standardize(s, np.array([[1.0]]))


def test_standardized_train_has_unit_moments(fixture_ds):
    pipe = fit_pipeline(fixture_ds)
    z = pipe.transform(fixture_ds)
    sigma = pipe.standardizer.sigma
    nonconstant = sigma > 0
    assert np.abs(z[:, nonconstant].mean(axis=0)).max() < 1e-9
    assert np.abs(z[:, nonconstant].std(axis=0) - 1.0).max() < 1e-9
    assert (z[:, ~nonconstant] == 0).all()


@settings(max_examples=50, deadline=None)
@given(
    counts=st.dictionaries(
        st.text(alphabet="abcdef", min_size=1, max_size=3),
        st.integers(min_value=1, max_value=50),
        min_size=1,
        max_size=6,
    )
)
def test_labelcount_monotonicity_property(counts):
    protos = [cat for cat, n in counts.items() for _ in range(n)]
    enc = fit_encoder(_ds_with_protocols(protos))
    table = enc.tables["protocol_type"]
    for a, (count_a, code_a) in table.items():
        for b, (count_b, code_b) in table.items():
            if count_a > count_b:
                assert code_a > code_b
            if a != b:
                assert code_a != code_b


def test_refit_on_train_is_idempotent():
    ds = _ds_with_protocols(["tcp", "udp", "tcp", "icmp", "tcp", "udp"])
    enc1 = fit_encoder(ds)
    enc2 = fit_encoder(ds)
    assert enc1.tables == enc2.tables


def test_transform_returns_the_matrix_and_rejects_a_non_finite_result(fixture_ds):
    pipe = fit_pipeline(fixture_ds)
    z = pipe.transform(fixture_ds)
    assert isinstance(z, np.ndarray) and z.dtype == np.float64 and z.shape == (len(fixture_ds), 41)
    fields = kdd_line(fixture_ds.records[0]).split(",")
    fields[INDEX["serror_rate"]] = "1.7e308"  # overflows once divided by sigma
    huge = parse_kdd_lines([",".join(fields)], split="test")
    with pytest.raises(KddParseError, match="'serror_rate' is too large to standardize"):
        pipe.transform(huge)


def test_transform_never_mutates_pipeline(fixture_ds, small_ds):
    pipe = fit_pipeline(fixture_ds)
    before = pipe.to_json()
    pipe.transform(small_ds)
    pipe.transform(fixture_ds)
    assert pipe.to_json() == before


def test_pipeline_json_golden_fields():
    ds = _ds_with_protocols(["tcp", "tcp", "udp"])
    pipe = fit_pipeline(ds)
    doc = json.loads(pipe.to_json())
    assert set(doc) == {"format_version", "kind", "features", "encoders"}
    assert doc["format_version"] == 1
    assert [f["name"] for f in doc["features"]] == list(NAMES)
    assert set(doc["features"][0]) == {"name", "mu", "sigma"}
    assert set(doc["encoders"]) == {"protocol_type", "service", "flag"}
    assert doc["encoders"]["protocol_type"]["tcp"] == [2, 2]
    assert doc["encoders"]["protocol_type"]["udp"] == [1, 1]


def test_pipeline_json_roundtrip(fixture_ds):
    pipe = fit_pipeline(fixture_ds)
    a = pipe.transform(fixture_ds)
    assert a.shape[1] == 41
    doc = json.loads(pipe.to_json())
    # files from before constant-column dropping was removed carry an
    # empty "dropped_features" list; they load the same
    for text in (pipe.to_json(), json.dumps({**doc, "dropped_features": []})):
        b = FittedPipeline.from_json(text).transform(fixture_ds)
        assert (a == b).all()


def test_pipeline_json_version_guard(fixture_ds):
    doc = json.loads(fit_pipeline(fixture_ds).to_json())
    doc["format_version"] = 99
    with pytest.raises(ValueError, match="version"):
        FittedPipeline.from_json(json.dumps(doc))


def test_unseen_code_zero_is_reserved():
    ds = _ds_with_protocols(["tcp", "udp"])
    enc = fit_encoder(ds)
    assert isinstance(enc, LabelCountEncoder)
    assert enc.code("protocol_type", "never_seen") == 0
    assert min(code for _, code in enc.tables["protocol_type"].values()) >= 1
