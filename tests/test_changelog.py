"""The change log at the repository root stays readable: valid UTF-8 and
small.  It grows by about one line of a few kilobytes per change, so a file
near a megabyte means that an edit rewrote it rather than appended to it."""

from pathlib import Path

_CHANGES = Path(__file__).resolve().parent.parent / "CHANGES.md"
_MAX_BYTES = 1_000_000


def test_the_change_log_is_small_valid_utf8():
    data = _CHANGES.read_bytes()
    assert len(data) < _MAX_BYTES, f"CHANGES.md is {len(data)} bytes"
    data.decode("utf-8")
