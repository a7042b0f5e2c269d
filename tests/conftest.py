import os
from pathlib import Path

import pytest

from nidkit.dataset import load_taxonomy

from .fixtures import make_fixture


def real_data_dir() -> Path:
    return Path(os.environ.get("NIDKIT_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))


def real_data_path(name: str) -> Path | None:
    path = real_data_dir() / name
    return path if path.exists() else None


def require_real_data(name: str) -> Path:
    path = real_data_path(name)
    if path is None:
        pytest.skip(
            f"NSL-KDD file {name} not found under {real_data_dir()} "
            "(run scripts/fetch_nsl_kdd.py or set NIDKIT_DATA_DIR)"
        )
    return path


@pytest.fixture(scope="session")
def taxonomy():
    return load_taxonomy()


@pytest.fixture(scope="session")
def fixture_ds():
    return make_fixture(30, seed=11)


@pytest.fixture(scope="session")
def small_ds():
    return make_fixture(4, seed=5)
