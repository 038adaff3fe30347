"""The demos run end to end and print exactly what they printed before.

Each script in demos/ runs in its own interpreter, on the package this test
session imports, and its stdout is pinned by sha256.  The digests were
recorded while the Chow-form limits still took the compound of the pencil
over a dense univariate polynomial ring.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import completequadrics

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = pathlib.Path(completequadrics.__file__).resolve().parent.parent


DIGESTS = {
    "chamber_map": "78e91477077752b7094f3447f244fd8dcb5d21a4a71a8459ef3cb0051132ef46",
    "chow_limits": "29aca90e29b323830a1e99a28b286912ac1d84b512ca5f2a0249bfd19f8a461a",
    "intersection_table": "7241cb3d67fd8543e4ae0f2961c156a02b5fbeec67d185cb9c24156af7ab5e2f",
    "schubert_count": "a6950b528e44c1c0db49741e49f348ed59ec5a1f6ea99e61eb45716fb5706a34",
    "wedge_contractions": "a89d745f14c39e9bf1eef42abf7e7f01df9d1f9fd622ee71f9c495235683cf82",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_pinned(name):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / (name + ".py"))],
        capture_output=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]


def test_every_demo_is_pinned():
    assert {p.stem for p in DEMOS.glob("*.py")} == set(DIGESTS)
