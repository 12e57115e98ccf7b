"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.energy import Estimator


@pytest.fixture
def rng():
    """A deterministic random generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def estimator():
    """One shared energy estimator (costing is pure, caching helps)."""
    return Estimator()


@pytest.fixture
def scratch_models(monkeypatch):
    """A private copy of the model registry for the test.

    Runtime registrations (``register_model``, ``--model-file``) land in
    the copy, which is dropped afterwards even when the test fails, so
    no model leaks into later tests.
    """
    from repro.dnn import models

    scratch = models.MODELS.clone()
    monkeypatch.setattr(models, "MODELS", scratch)
    return scratch
