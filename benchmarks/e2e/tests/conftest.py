"""Load the benchmark's modules by path: the directory is not a package
and ``trace`` shadows a standard-library module name."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

E2E = pathlib.Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]


@pytest.fixture(scope="session")
def run():
    spec = importlib.util.spec_from_file_location("e2e_run", E2E / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def trace(run):
    return run.load_sibling("trace")


@pytest.fixture(scope="session")
def hostspeed(run):
    return run.load_sibling("hostspeed")


@pytest.fixture(scope="session")
def compare(run):
    return run.load_sibling("compare")
