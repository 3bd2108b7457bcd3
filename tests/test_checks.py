"""Unit tests for the check-row bookkeeping."""

from __future__ import annotations

from dataclasses import asdict

from kahler_lab.checks import CheckItem


def test_as_dict_is_asdict_with_pass_renamed():
    # the report's row dict: every field in order, `passed` written last
    # as `pass`, for each of the five row kinds
    items = [
        CheckItem.identity("a", "eq. 1", 1.0, 1.0 + 1e-9, 1e-6, relative_to=2.0, note="x"),
        CheckItem.lower_bound("b", "lemma 3.4", 0.5, 0.7, 1e-7),
        CheckItem.upper_bound("c", "lemma 4.1", 0.5, 0.7, 1e-7),
        CheckItem.exact("d", "thm 1", False),
        CheckItem.info("e", "sec. 5", 3.25, note="measured"),
    ]
    assert [item.kind for item in items] == [
        "identity", "lower_bound", "upper_bound", "exact", "info"]
    for item in items:
        expected = asdict(item)
        expected["pass"] = expected.pop("passed")
        got = item.as_dict()
        assert got == expected and list(got) == list(expected)
        assert all(type(got[key]) is type(expected[key]) for key in got)
