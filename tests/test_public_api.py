"""The README's "Public API" list names exactly what ``minorkit`` exports."""

import re
import types
from pathlib import Path

import minorkit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_public_api_matches_exports():
    section = README.read_text(encoding="utf-8").split("## Public API", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    exported = {name for name in minorkit.__all__
                if not isinstance(getattr(minorkit, name), types.ModuleType)}
    assert listed == exported
