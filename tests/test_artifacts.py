"""Pinned CLI artifacts: each subcommand's output at a fixed seed and sample count.

Every subcommand writes its CSV and its JSON at ``--seed 7 --samples 20``,
and each file must equal the one under ``tests/artifacts/`` byte for byte.
``PYTHONPATH=src python tests/test_artifacts.py`` rewrites those files from
the current library; do that only for a change that is meant to move these
numbers, and say so.
"""

import pathlib

import pytest

from qescrow import cli

ARTIFACTS = pathlib.Path(__file__).resolve().parent / "artifacts"
RUNS = [(command, fmt) for command in sorted(cli.COMMANDS) for fmt in ("csv", "json")]


def _write(command: str, fmt: str, out: pathlib.Path) -> None:
    cli.main([command, "--seed", "7", "--samples", "20", "--format", fmt, "--out", str(out)])


@pytest.mark.parametrize("command, fmt", RUNS)
def test_the_artifact_is_byte_identical_to_the_pinned_one(command, fmt, tmp_path):
    name = f"{command}.{fmt}"
    _write(command, fmt, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (ARTIFACTS / name).read_bytes()


if __name__ == "__main__":
    for command, fmt in RUNS:
        _write(command, fmt, ARTIFACTS / f"{command}.{fmt}")
