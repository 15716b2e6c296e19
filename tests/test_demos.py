"""The six demos run end to end and print exactly what they printed before.

Each demo imports from the package top level, so a name dropped from
`credmarket/__init__.py` fails here; the stdout hash pins every number the
demo prints.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: SHA-256 of each demo's stdout with no arguments
DEMO_STDOUT_SHA256 = {
    "broadcast_audit": "c728108e1cf061f4895c27a83fee715ec04ed864c4b0e23630c76ea57beaaa72",
    "dra_deposits": "45d01af61aa58f6bdc0d7329ab6d680c144a7a6a63929ef40dd3dd3e1b3d7edc",
    "fee_separation": "4a0542bc9c53d9bf9e8e75695a12cd83a15c5b2fa8bc56e510a59fb44321c62a",
    "ghost_operator": "596a1d74203e7349b1f02dec087826409e850fc49acd363d038997b793684791",
    "topology_tour": "b1241394b3b2d7290893aba20f7daf939504f2885272dc364bd0d302f17e2195",
    "worked_example": "334a9cc7ce63e05318ae53ccd2738e812578207a80d6dd7b6f6347ee1ab0aa2f",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_output_is_pinned(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]
