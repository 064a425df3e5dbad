import sys
import tracemalloc
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from sslab import classic, combinatorics, hashing, oracle, structured  # noqa: E402
from sslab.core import CapacityError, check_bytes  # noqa: E402


@pytest.fixture
def charges(monkeypatch):
    """Every byte charge made while the test runs, in order: each module's
    check_bytes records the bytes it is asked about, then checks them."""
    made = []

    def record(nbytes, what):
        made.append(nbytes)
        check_bytes(nbytes, what)

    for module in (classic, combinatorics, hashing, oracle, structured):
        monkeypatch.setattr(module, "check_bytes", record)
    return made


@pytest.fixture
def traced():
    """traced(fn, *args, refusal=False, **kwargs) runs fn(*args, **kwargs) under tracemalloc
    and returns (its value, the traced peak). With `refusal`, a CapacityError that fn raises
    is returned as its value, the peak read after it; otherwise it propagates."""

    def run(fn, *args, refusal=False, **kwargs):
        tracemalloc.start()
        try:
            try:
                out = fn(*args, **kwargs)
            except CapacityError as exc:
                if not refusal:
                    raise
                out = exc
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
