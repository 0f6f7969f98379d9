"""The package's public surface."""

import ptsusy


def test_every_public_name_resolves():
    # __all__ is kept by hand; each entry must name an attribute of the package, once
    assert [name for name in ptsusy.__all__ if not hasattr(ptsusy, name)] == []
    assert len(set(ptsusy.__all__)) == len(ptsusy.__all__)
