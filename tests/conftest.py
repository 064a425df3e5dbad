import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from sslab import classic, combinatorics, oracle, structured  # noqa: E402
from sslab.core import check_bytes  # noqa: E402


@pytest.fixture
def charges(monkeypatch):
    """Every byte charge made while the test runs, in order: each module's
    check_bytes records the bytes it is asked about, then checks them."""
    made = []

    def record(nbytes, what):
        made.append(nbytes)
        check_bytes(nbytes, what)

    for module in (classic, combinatorics, oracle, structured):
        monkeypatch.setattr(module, "check_bytes", record)
    return made
