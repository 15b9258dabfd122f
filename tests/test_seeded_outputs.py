"""Every seeded output equals its record (see seeded_outputs.py)."""

import json

import numpy as np
import pytest

import seeded_outputs

RECORD = json.loads(seeded_outputs.DATA.read_text())


@pytest.fixture(scope="module")
def outputs():
    return seeded_outputs.compute()


def test_every_output_is_recorded(outputs):
    assert list(outputs) == list(RECORD["outputs"])


def test_values_match_to_12_digits(outputs):
    # the record rounds to 12 significant digits, half a unit in the 12th
    # digit; the gate adds as much again for the rounding of other builds
    moved = [name for name, want in RECORD["outputs"].items()
             if not np.allclose(outputs[name]["values"], want["values"], rtol=1e-11, atol=1e-14)]
    assert not moved, moved


def test_float64_bytes_match_on_the_recording_host(outputs):
    if seeded_outputs.host() != RECORD["host"]:
        pytest.skip("numpy or the CPU differs from the recording host")
    moved = [name for name, want in RECORD["outputs"].items()
             if outputs[name]["sha256"] != want["sha256"]]
    assert not moved, moved
