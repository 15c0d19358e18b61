"""The full output of every pinned argv group, held to its committed sha256."""
import json

import pytest

import output_pins


@pytest.mark.parametrize("group", sorted(output_pins.GROUPS))
def test_group_output_matches_its_pinned_digest(group):
    with open(output_pins.PINS) as fh:
        pinned = json.load(fh)
    assert output_pins.digest(group) == pinned[group]


def test_every_pinned_group_is_generated():
    with open(output_pins.PINS) as fh:
        assert sorted(json.load(fh)) == sorted(output_pins.GROUPS)
