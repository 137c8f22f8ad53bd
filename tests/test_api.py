"""The README's Library API section documents every exported name."""

import re
from pathlib import Path

import mcsvortex

README = Path(__file__).resolve().parents[1] / "README.md"


def _api_section() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library API\n(.*?)(?=^## )", text, re.M | re.S)
    assert match, "README.md has no '## Library API' section"
    return match.group(1)


def test_every_export_is_documented():
    section = _api_section()
    missing = [name for name in mcsvortex.__all__ if f"`{name}`" not in section]
    assert not missing, f"not in README's Library API section: {missing}"
