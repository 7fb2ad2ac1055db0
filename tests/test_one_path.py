"""The package keeps one way to answer each question: a name the README
lists as removed from the package must not come back, and every name the
package exports must resolve."""

import re
from pathlib import Path

import pytest

import repcurve

README = Path(__file__).resolve().parent.parent / "README.md"


def removed_names() -> list:
    """The names in the first column of the README's "removed from the
    package" table, as "owner.attribute" with any argument list dropped;
    the owner is a repcurve module or a class the package exports."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| removed from the package |"))
    names = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        names += [re.sub(r"\(.*", "", code)
                  for code in re.findall(r"`([^`]+)`", line.split("|")[1])]
    return names


def test_removed_table_is_read():
    names = removed_names()
    assert len(names) >= 15
    assert all(re.fullmatch(r"\w+\.\w+", n) for n in names), names
    assert "curvefam.trace_identity_check" in names


@pytest.mark.parametrize("name", removed_names())
def test_removed_name_stays_removed(name):
    owner, attr = name.split(".")
    assert not hasattr(getattr(repcurve, owner), attr)


def test_exported_names_resolve():
    missing = [n for n in repcurve.__all__ if not hasattr(repcurve, n)]
    assert missing == []
