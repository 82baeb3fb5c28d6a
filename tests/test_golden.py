"""The golden CLI set gives the committed manifest's bytes (see golden_manifest.py)."""

import json

import pytest

from golden_manifest import MANIFEST, environment, run_golden_set


def test_golden_artifacts_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    for key, here in environment().items():
        if manifest[key] != here:
            pytest.skip(f"the manifest was made with {key} {manifest[key]!r}, this run has "
                        f"{here!r}: the arithmetic, and so the bytes, may differ")
    want, got = manifest["artifacts"], run_golden_set(tmp_path)
    changed = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not changed, f"artifacts whose bytes differ from the manifest: {changed}"
