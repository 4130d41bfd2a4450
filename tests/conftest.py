"""Suite-wide fixtures.

The CLI defaults its precompiled-artifact cache to ``~/.cache/repro``
(overridable via ``$REPRO_ARTIFACT_DIR``); tests must neither read a
developer's real cache (stale snapshots would mask cold-path bugs) nor
write into it.  Every test therefore gets a private, empty artifact
directory — tests that want cross-run warmth share one explicitly.
"""

import sys
import threading

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


@pytest.fixture
def race():
    """``race(work)`` starts ``work(i)`` on eight threads at once, under a
    one-microsecond thread switch interval so that unguarded
    read-modify-write sequences interleave, and returns the exceptions
    the threads raised."""
    def run(work, threads: int = 8) -> list:
        errors: list = []
        start = threading.Barrier(threads)

        def body(i: int) -> None:
            start.wait()
            try:
                work(i)
            except Exception as exc:  # noqa: BLE001 - reported to the test
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=body, args=(i,))
                       for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        return errors

    return run
