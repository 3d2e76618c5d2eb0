from __future__ import annotations

from pathlib import Path

import pytest

from gitloci import vgit
from gitloci.cli import LoadedSpec, load_spec

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "corpus"


@pytest.fixture(scope="session")
def ex1_7() -> LoadedSpec:
    return load_spec(str(CORPUS / "ex1_7.json"))


@pytest.fixture(scope="session")
def sec7_1() -> LoadedSpec:
    return load_spec(str(CORPUS / "sec7_1.json"))


@pytest.fixture(scope="session")
def external_toy() -> LoadedSpec:
    return load_spec(str(CORPUS / "external_toy.json"))


@pytest.fixture
def mistwist_lambda(monkeypatch):
    """A setter of the lambda twist that `vgit.verify_external_change`
    reads from `build_double_extension`: a mis-twisted negative control."""

    def plant(twist_lambda):
        real = vgit.build_double_extension

        def build(*args):
            double, _, twist_mu = real(*args)
            return double, twist_lambda, twist_mu

        monkeypatch.setattr(vgit, "build_double_extension", build)

    return plant
