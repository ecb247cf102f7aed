import numpy as np
import pytest

from symbreak.subgroups import build_lattice


@pytest.fixture(scope="session")
def lattice4():
    return build_lattice(4)


@pytest.fixture(scope="session")
def lattice5():
    return build_lattice(5)


@pytest.fixture(scope="session")
def lattice6():
    return build_lattice(6)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240901)


def random_admissible(rng, k: int, spread: float = 0.4) -> np.ndarray:
    """Random weight matrix near the identity with safely nonzero rows."""
    while True:
        point = np.eye(k) + spread * rng.standard_normal((k, k))
        if np.linalg.norm(point, axis=1).min() > 0.2:
            return point


def vec(U) -> np.ndarray:
    """Column stacking, the hessian module's vec convention:
    (u_1, ..., u_k) -> concatenated columns."""
    return np.asarray(U, dtype=float).flatten(order="F")


def unvec(x, k: int) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape((k, k), order="F")


def permutation_matrix(p) -> np.ndarray:
    """Matrix P with P e_i = e_{p(i)} for a permutation tuple p: the
    explicit action that checks the characters."""
    mat = np.zeros((len(p), len(p)))
    for i, x in enumerate(p):
        mat[x, i] = 1.0
    return mat


def class_by_label(lattice, label: str):
    """The subgroup class of the lattice with this label."""
    (cls,) = [c for c in lattice.classes if c.label == label]
    return cls
