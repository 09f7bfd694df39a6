"""The package's public surface."""
import factorspec


def test_every_public_name_resolves():
    missing = [name for name in factorspec.__all__ if not hasattr(factorspec, name)]
    assert missing == []
