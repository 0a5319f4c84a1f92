"""The numpy matrix exponential, and an import of orbitkit without scipy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orbitkit.classify import admissible_types, expm, lie_steps
from orbitkit.liealg import basis, make_algebra
from orbitkit.triples import orbit_rep

ROOT = Path(__file__).resolve().parent.parent
DESCS = [make_algebra("sp", 3), make_algebra("u", (2, 3)), make_algebra("sostar", 4),
         make_algebra("so2q", 4)]
IDS = [d.name() for d in DESCS]


def _stack(rng, n, count=12, complex_=False):
    # norms from 0.01 to 40, so that some matrices take the scaling path
    A = rng.standard_normal((count, n, n))
    if complex_:
        A = A + 1j * rng.standard_normal((count, n, n))
    return A * np.geomspace(0.01, 40, count)[:, None, None] / n


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_stack_equals_matrices_one_by_one(complex_):
    rng = np.random.default_rng(3)
    for n in (1, 2, 4, 7):
        A = _stack(rng, n, complex_=complex_)
        E = expm(A)
        assert np.array_equal(E, np.stack([expm(a) for a in A]))
        assert np.array_equal(expm(A[:5]), E[:5])
        assert np.array_equal(expm(A.reshape(3, 4, n, n)), E.reshape(3, 4, n, n))


@pytest.mark.parametrize("desc", DESCS, ids=IDS)
def test_exponential_of_minus_a_is_the_inverse(desc):
    B = basis(desc)
    xi = lie_steps(np.random.default_rng(5).standard_normal((20, len(B))), B)
    E, Einv = expm(xi), expm(-xi)
    assert np.abs(E @ Einv - np.eye(desc.N)).max() <= 1e-14


@pytest.mark.parametrize("desc", DESCS, ids=IDS)
def test_square_zero_representative_exponentiates_to_identity_plus_x(desc):
    square_zero = 0
    for t, u in admissible_types(desc):
        X = orbit_rep(desc, t, u)
        if np.any(X @ X):
            continue
        square_zero += 1
        assert np.array_equal(expm(X), np.eye(desc.N) + X)
    assert square_zero >= desc.r + 1


def test_scaling_path_on_a_diagonal():
    d = np.array([-30.0, -2.5, 0.0, 1.0, 12.0])
    E = expm(np.diag(d))
    assert np.array_equal(E, np.diag(np.diag(E)))
    assert np.abs(np.diag(E) / np.exp(d) - 1).max() <= 1e-14


def test_empty_matrices_and_stacks():
    assert expm(np.zeros((0, 0))).shape == (0, 0)
    assert expm(np.zeros((3, 0, 0))).shape == (3, 0, 0)
    assert expm(np.zeros((0, 4, 4), dtype=complex)).shape == (0, 4, 4)
    assert np.array_equal(expm(np.zeros((2, 3, 3))), np.broadcast_to(np.eye(3), (2, 3, 3)))
    E = expm(np.array([[2]]))       # integer input
    assert E.dtype == float and abs(E[0, 0] / np.exp(2.0) - 1) <= 1e-15


def test_agrees_with_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 6, 8):
        for complex_ in (False, True):
            A = rng.standard_normal((10, n, n))
            if complex_:
                A = A + 1j * rng.standard_normal((10, n, n))
            # Frobenius norms up to 2, where exp is well conditioned
            A *= np.linspace(0.05, 2.0, 10)[:, None, None] / np.linalg.norm(A, axis=(1, 2),
                                                                            keepdims=True)
            for a, e in zip(A, expm(A)):
                ref = scipy_linalg.expm(a)
                assert np.abs(e - ref).max() <= 1e-14 * np.abs(ref).max()


def test_import_leaves_scipy_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, orbitkit, orbitkit.cli; print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"
