"""README's results table matches a fresh run of ``tests/results_table.py``."""

import re

import results_table

# a figure of the table: the numbers are printed to 3 decimals
_NUMBER = re.compile(r"\d+\.\d+")


def test_readme_results_match_a_fresh_run():
    """Each README figure lies within 0.0005 (its rounding) of the computed one, so
    last-bit differences between hosts pass and a figure moved by 0.001 fails; the text
    around the figures must be the same."""
    shown, fresh = results_table.readme_block(), results_table.render()
    assert _NUMBER.sub("#", shown) == _NUMBER.sub("#", fresh)
    for old, new in zip(_NUMBER.findall(shown), _NUMBER.findall(fresh)):
        assert abs(float(old) - float(new)) <= 0.0005 + 1e-9, (old, new)
