"""Fixtures shared by the test modules."""

import pytest

from gcflow import spectral


@pytest.fixture
def transform_calls(monkeypatch):
    """Records each call of gcflow's transform pair `spectral._hat`/`_real`,
    as the name of the function called; every module looks the pair up on
    `spectral` at each call, so the patch sees every one.  Arguments pass
    through as given, `out=` included."""
    calls = []
    for name in ("_hat", "_real"):
        transform = getattr(spectral, name)

        def counted(*args, _name=name, _transform=transform, **kwargs):
            calls.append(_name)
            return _transform(*args, **kwargs)
        monkeypatch.setattr(spectral, name, counted)
    return calls
