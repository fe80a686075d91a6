"""The package's export lists name only what exists, once each."""
import pytest

import chainsentry
import chainsentry.intention


@pytest.mark.parametrize("module", [chainsentry, chainsentry.intention],
                         ids=lambda m: m.__name__)
def test_every_export_resolves_once(module):
    names = module.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(module, name), name
