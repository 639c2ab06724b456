"""Shared fixtures for the test suite.

Expensive objects (generated datasets, grounded engines) are session-scoped:
they are deterministic (fixed seeds) and read-only from the tests'
perspective, so sharing them keeps the suite fast.
"""

from __future__ import annotations

import pytest

from repro import CaRLEngine
from repro.datasets import (
    TOY_REVIEW_PROGRAM,
    generate_mimic_data,
    generate_nis_data,
    generate_review_data,
    generate_synthetic_review_data,
    toy_review_database,
)
from repro.faults.injection import clear_plan, install_plan
from repro.faults.plan import FaultPlan


@pytest.fixture(scope="session")
def toy_engine() -> CaRLEngine:
    """Engine over the Figure 2 toy instance with the Example 3.4 rules."""
    return CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM)


@pytest.fixture(scope="session")
def toy_database():
    return toy_review_database()


@pytest.fixture(scope="session")
def synthetic_review_small():
    """A small SYNTHETIC REVIEWDATA instance with relational effects."""
    return generate_synthetic_review_data(n_authors=400, papers_per_author=2.5, seed=42)


@pytest.fixture(scope="session")
def synthetic_review_medium():
    """A medium SYNTHETIC REVIEWDATA instance, large enough for estimate-quality tests."""
    return generate_synthetic_review_data(n_authors=1500, papers_per_author=3.0, seed=3)


@pytest.fixture(scope="session")
def synthetic_review_engine(synthetic_review_medium) -> CaRLEngine:
    return CaRLEngine(synthetic_review_medium.database, synthetic_review_medium.program)


@pytest.fixture(scope="session")
def mimic_small():
    return generate_mimic_data(n_patients=2500, seed=23)


@pytest.fixture(scope="session")
def nis_small():
    return generate_nis_data(n_admissions=3000, seed=31)


@pytest.fixture(scope="session")
def review_small():
    return generate_review_data(n_authors=500, n_submissions=300, seed=11)


@pytest.fixture
def fault_plan():
    """Install a fault plan built from the given rules for one test.

    Worker processes inherit the plan; it is cleared when the test ends.
    """
    yield lambda *rules: install_plan(FaultPlan(rules=rules))
    clear_plan()
