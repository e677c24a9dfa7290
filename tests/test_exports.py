"""The package's export list matches what the package binds."""

import types

import cmvkit


def test_all_is_sorted_and_resolves():
    assert cmvkit.__all__ == sorted(cmvkit.__all__)
    assert len(set(cmvkit.__all__)) == len(cmvkit.__all__)
    for name in cmvkit.__all__:
        assert hasattr(cmvkit, name), name


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(cmvkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(cmvkit.__all__) == public
