"""The full output of every pinned argv group, held to its committed sha256."""
import json
import os
import shutil
import subprocess
import sys

import pytest

import output_pins
from polytopenums import cli

ROOT = os.path.dirname(output_pins.HERE)


@pytest.mark.parametrize("group", sorted(output_pins.GROUPS))
def test_group_output_matches_its_pinned_digest(group):
    with open(output_pins.PINS) as fh:
        pinned = json.load(fh)
    assert output_pins.digest(group) == pinned[group]


def test_every_pinned_group_is_generated():
    with open(output_pins.PINS) as fh:
        assert sorted(json.load(fh)) == sorted(output_pins.GROUPS)


def test_seq_blocks_straddle_the_blocks_seq_formats():
    assert output_pins.SEQ_BLOCK == cli._BLOCK_ROWS


def test_diff_against_head_finds_no_difference():
    if shutil.which("git") is None or subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--verify", "--quiet", "HEAD^{commit}"],
            capture_output=True).returncode:
        pytest.skip("needs a git checkout with a commit")
    done = subprocess.run([sys.executable, output_pins.__file__, "--diff", "HEAD", "usage"],
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                          capture_output=True, text=True, timeout=120)
    count = len(output_pins.GROUPS["usage"]())
    assert (done.returncode, done.stdout, done.stderr) == (
        0, f"usage: no difference from HEAD in {count} argvs\n", "")
