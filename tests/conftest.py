"""Shared fixtures: bundled models are expensive enough to build once."""

import os
from pathlib import Path

import pytest

from sepinv import bundled

# The CLI tests start child interpreters; they import sepinv from the same
# source tree as this process, so the suite runs without an install.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session")
def id10253():
    return bundled.load("id10253")


@pytest.fixture(scope="session")
def two_planes():
    return bundled.load("two-planes")


@pytest.fixture(scope="session")
def additive2():
    return bundled.load("additive-2")


@pytest.fixture(scope="session")
def additive3():
    return bundled.load("additive-3")
