"""Acceptance suite: every registered check of ``arcact.identities`` at desk.

The registry is the single list of acceptance checks, so this module and
``arcact verify --all`` run the same checks; a failure shows its witness.
All comparisons are exact; there are no numeric tolerances.
"""

import pytest

from arcact import identities


@pytest.mark.parametrize("check_id", identities.registry_ids())
def test_registered_check_passes_at_desk(check_id):
    result = identities.run(check_id)
    assert result.ok, f"{check_id} [{result.params}]: {result.witness}"
