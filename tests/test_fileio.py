import errno

import pytest

from qasum.errors import IoError
from qasum.fileio import write_atomic


@pytest.mark.parametrize(
    "error, expected",
    [(RuntimeError("source failed"), RuntimeError), (OSError(errno.ENOSPC, "No space left on device"), IoError)],
    ids=["other_error", "os_error"],
)
def test_chunks_that_fail_after_the_first_leave_the_previous_file(tmp_path, error, expected):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous content")

    def chunks():
        yield b"new content"
        raise error

    with pytest.raises(expected) as raised:
        write_atomic(path, chunks())
    if expected is IoError:
        assert f"cannot write {path}" in str(raised.value)
    assert path.read_bytes() == b"previous content"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_chunks_are_written_in_order(tmp_path):
    path = tmp_path / "sub" / "out.bin"
    write_atomic(path, (bytes([i]) * 3 for i in range(4)))
    assert path.read_bytes() == b"\0\0\0\1\1\1\2\2\2\3\3\3"
