"""Every golden CLI case against its record in ``tests/golden/manifest.json``.

A failure names the case and shows which hashes moved. If the change was
meant, re-record the manifest (see ``record_golden.py``) and list the
changed entries in CHANGES.md.
"""

import pytest

from record_golden import CASES, load_manifest, run_case

MANIFEST = load_manifest()


def test_manifest_covers_exactly_the_cases():
    assert list(MANIFEST) == list(CASES)


@pytest.mark.parametrize("name", CASES)
def test_golden_case(name):
    assert run_case(name) == MANIFEST[name]
