"""The package's public name list stays sorted, unique and importable."""

import jointrdf


def test_all_is_sorted_unique_and_resolves():
    names = jointrdf.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(jointrdf, name)]
    assert missing == []
