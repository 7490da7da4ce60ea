import shiftlab


def test_every_export_resolves_once():
    """Each name in __all__ is an attribute of the package, listed once."""
    names = shiftlab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(shiftlab, name)]
    assert missing == []
