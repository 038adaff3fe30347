"""The faces of the classifier's plane arrangement and the partition check
that visits each of them once."""

import itertools
import os
import pathlib
import subprocess
import sys

import pytest

import completequadrics
from completequadrics import chambers
from completequadrics.chambers import _faces, _plane_signs, chamber_census, face_census

SRC = pathlib.Path(completequadrics.__file__).resolve().parent.parent


def patterns(vectors):
    return {_plane_signs(h) for h in vectors}


def all_patterns():
    return patterns(itertools.chain(*_faces()))


def test_faces_pinned():
    faces = _faces()
    assert [len(f) for f in faces] == [1, 44, 114, 72]
    assert faces[0] == ((0, 0, 0),)
    assert len(all_patterns()) == 231
    assert all(type(x) is int for h in itertools.chain(*faces) for x in h)
    # a ray lies on two or more of the 11 planes, a 2-face on one
    zeros = [{_plane_signs(h).count(0) for h in vectors} for vectors in faces[1:]]
    assert min(zeros[0]) >= 2 and max(zeros[0]) < 11 and zeros[1:] == [{1}, {0}]


def test_ray_sums_give_the_same_faces():
    # the rays with the sums of two rays and of a 2-face and a ray, the
    # construction without the nudge, give exactly the listed faces
    rays, sectors = _faces()[1:3]
    sums = [tuple(map(sum, zip(u, v))) for u, v in itertools.combinations(rays, 2)]
    sums += [tuple(map(sum, zip(u, v))) for u, v in itertools.product(sectors, rays)]
    assert patterns(rays) | patterns(sums) == all_patterns()


def test_integer_box_has_exactly_the_listed_faces():
    # brute force: the integer vectors with entries in -10..10 meet every face
    box = itertools.product(range(-10, 11), repeat=3)
    assert patterns(box) == all_patterns()


def test_normals_closed_under_reversal():
    # the duality reverses H vectors, so it maps faces to faces
    def line(n):
        return frozenset({n, tuple(-x for x in n)})

    normals = chambers._plane_table()[0]
    assert {line(n[::-1]) for n in normals} == {line(n) for n in normals}
    assert patterns(h[::-1] for h in itertools.chain(*_faces())) == all_patterns()


def test_census_pool_lands_on_faces(monkeypatch):
    # every draw of the benchmark's census pool has the sign pattern of a
    # listed face
    read, real = set(), chambers._placement

    def placement(signs):
        read.add(signs)
        return real(signs)

    monkeypatch.setattr(chambers, "_placement", placement)
    for seed in range(128):
        chamber_census(50, seed)
    assert read <= all_patterns()
    assert len(read) > 50


def test_face_census_counts():
    assert face_census() == {
        "faces": {"apex": 1, "rays": 44, "2-faces": 114, "chambers": 72},
        "chamber_faces": {"1": 11, "2": 6, "3": 8, "4": 8, "5": 14, "6": 14, "7": 14, "8": 14},
        "non_effective": 141,
    }


@pytest.fixture
def fresh_faces():
    _faces.cache_clear()
    yield
    _faces.cache_clear()


def test_euler_relation_checked(monkeypatch, fresh_faces):
    # one plane has no rays and no bounded faces, so the relation fails
    monkeypatch.setattr(chambers, "_plane_table", lambda: (((1, 0, 0),), {}, ()))
    with pytest.raises(RuntimeError, match="faces break Euler's relation: 0 rays, 0 2-faces, 0 chambers"):
        _faces()


def test_import_builds_no_faces():
    code = "from completequadrics import chambers\nprint(chambers._faces.cache_info().currsize)\n"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
