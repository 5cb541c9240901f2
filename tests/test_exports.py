"""``plumerom`` resolves its public names lazily from a table of name ->
submodule; a name deleted or moved in its submodule would only fail on first
access."""

import plumerom
import pytest


@pytest.mark.parametrize("name", sorted(plumerom._EXPORTS))
def test_export_resolves(name):
    module = plumerom._EXPORTS[name]
    value = getattr(plumerom, name)
    assert value is getattr(getattr(plumerom, module), name)
    assert name in plumerom.__all__
