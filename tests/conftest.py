"""Suite-wide fixtures.

The CLI defaults its precompiled-artifact cache to ``~/.cache/repro``
(overridable via ``$REPRO_ARTIFACT_DIR``); tests must neither read a
developer's real cache (stale snapshots would mask cold-path bugs) nor
write into it.  Every test therefore gets a private, empty artifact
directory — tests that want cross-run warmth share one explicitly.
"""

import sys

import pytest


@pytest.fixture(autouse=True)
def _hermetic_artifact_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(function)`` returns a list that grows by one entry
    per call of ``function``, made through any ``repro`` module that
    holds it (``from x import f`` copies the binding into the importer,
    so every copy is rebound for the test)."""
    import repro.cli  # noqa: F401 - load every module before rebinding

    def install(function) -> list:
        calls: list = []

        def counting(*args, **kwargs):
            calls.append(args)
            return function(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counting)
        return calls

    return install
