"""The package's public surface."""

import sbm_miss


def test_every_public_name_resolves():
    assert [name for name in sbm_miss.__all__ if not hasattr(sbm_miss, name)] == []
    assert len(set(sbm_miss.__all__)) == len(sbm_miss.__all__)
