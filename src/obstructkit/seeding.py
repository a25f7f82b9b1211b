"""Deterministic randomness: every randomized routine takes an explicit seed.

All generators derive from a counter-based bit stream (Philox) through
``numpy``'s ``SeedSequence`` so that (master seed, suite index, trial index)
fully determines a trial, independent of execution order or thread count.
No code in this package touches the global numpy RNG.
:func:`rotations` takes ``exp(i angle h/||h||)`` for a hermitian ``h``, or each
of a stack with one angle each, from one ``eigh``, which also gives ``||h||``;
a batched ``eigh`` gives the bits of one call per matrix, so draws made one by
one and rotated as one stack equal :func:`random_rotation` drawn one by one.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSize
from .matcore import range_projection, require_indexable, sealed


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """A generator keyed by (master_seed, *path), order-independent across trials."""
    key = (int(master_seed), *(int(p) for p in path))
    if min(key) < 0:
        raise InvalidSize(f"seed and stream indices must be non-negative, got {key}")
    seq = np.random.SeedSequence(entropy=key[0], spawn_key=key[1:])
    return np.random.Generator(np.random.Philox(seq))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R-factor's diagonal phases are divided out, which is what makes the
    distribution exactly Haar rather than merely orthogonal-column.
    """
    if dim < 1:
        raise InvalidSize(f"dimension must be positive, got {dim}")
    shape = require_indexable((dim, dim))
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return sealed(q * (d / np.abs(d)).conj())


def gaussian_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """``(z + z*)/2`` for a complex Gaussian ``dim`` x ``dim`` matrix ``z``."""
    shape = require_indexable((dim, dim))
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (z + z.conj().T) / 2.0


def random_hermitian(dim: int, rng: np.random.Generator, norm: float = 1.0) -> np.ndarray:
    """Random hermitian matrix rescaled to operator norm exactly ``norm``."""
    h = gaussian_hermitian(dim, rng)
    top = float(np.linalg.norm(h, 2))
    if top == 0.0:
        return sealed(np.zeros((dim, dim), dtype=np.complex128))
    return sealed(h * (norm / top))


def rotations(h: np.ndarray, angle) -> np.ndarray:
    """``exp(i angle h/||h||)`` from one ``eigh``, whose largest eigenvalue
    magnitude is ``||h||``.  ``h`` is a hermitian matrix or a ``(k, n, n)``
    stack of them with ``k`` angles, one each; a 1-D array of angles for one
    matrix gives the stack of its rotations, one per angle."""
    lam, vecs = np.linalg.eigh(h)
    lam /= np.abs(lam).max(axis=-1, keepdims=True, initial=0.0)
    phases = np.exp(1j * (np.asarray(angle)[..., None] * lam))
    return sealed((vecs * phases[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2))


def random_rotation(dim: int, rng: np.random.Generator, angle) -> np.ndarray:
    """:func:`rotations` of the ``h`` of :func:`gaussian_hermitian`."""
    return rotations(gaussian_hermitian(dim, rng), angle)


def random_projection(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-``rank`` orthogonal projection with Haar-random range."""
    if not 0 <= rank <= dim:
        raise InvalidSize(f"rank {rank} out of range for dimension {dim}")
    return range_projection(haar_unitary(dim, rng)[:, :rank])
