"""Pytest path bootstrap and test-tier configuration.

The package is not installable: ``src/`` on the import path is the only
way in.  Run everything from the repository root with ``PYTHONPATH=src``
(CI does); this file also puts ``src/`` on ``sys.path`` so a bare
``pytest`` works from a source checkout.

Test tiers (see ``pytest.ini``):

* tier-1 (default): ``pytest`` runs everything not marked ``slow`` with the
  modest ``tier1`` Hypothesis profile — the fast loop the CI gate uses.
* full property run: ``HYPOTHESIS_PROFILE=thorough pytest -m slow`` raises
  the Hypothesis example counts for the heavy differential suites (parity
  against the row oracle, exhaustive aggregate sweeps); CI runs it too.
"""

import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

try:  # hypothesis is optional: without it the property-test modules simply
    # fail to collect (as in the seed), but the plain unit tests must still run.
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover - exercised only on minimal installs
    pass
else:
    settings.register_profile("tier1", max_examples=50, deadline=None)
    settings.register_profile(
        "thorough",
        max_examples=500,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
