"""Deterministic randomness: every randomized routine takes an explicit seed.

All generators derive from a counter-based bit stream (Philox) through
``numpy``'s ``SeedSequence`` so that (master seed, suite index, trial index)
fully determines a trial, independent of execution order or thread count.
No code in this package touches the global numpy RNG.
:func:`random_rotation` takes ``exp(i angle h/||h||)`` for a Gaussian hermitian
``h`` from one ``eigh``, which also gives ``||h||``: no SVD per rotation.
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


def _gaussian_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """``(z + z*)/2`` for a complex Gaussian ``dim`` x ``dim`` matrix ``z``."""
    shape = require_indexable((dim, dim))
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (z + z.conj().T) / 2.0


def random_hermitian(dim: int, rng: np.random.Generator, norm: float = 1.0) -> np.ndarray:
    """Random hermitian matrix rescaled to operator norm exactly ``norm``."""
    h = _gaussian_hermitian(dim, rng)
    top = float(np.linalg.norm(h, 2))
    if top == 0.0:
        return sealed(np.zeros((dim, dim), dtype=np.complex128))
    return sealed(h * (norm / top))


def random_rotation(dim: int, rng: np.random.Generator, angle) -> np.ndarray:
    """``exp(i angle h/||h||)`` for the ``h`` of :func:`_gaussian_hermitian`, from one
    ``eigh``, whose largest eigenvalue magnitude is ``||h||``.  A 1-D array of
    angles gives the stack of rotations of one ``h``, one per angle."""
    lam, vecs = np.linalg.eigh(_gaussian_hermitian(dim, rng))
    lam /= np.abs(lam).max(initial=0.0)
    phases = np.exp(1j * np.multiply.outer(angle, lam))
    return sealed((vecs * phases[..., None, :]) @ vecs.conj().T)


def random_projection(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-``rank`` orthogonal projection with Haar-random range."""
    if not 0 <= rank <= dim:
        raise InvalidSize(f"rank {rank} out of range for dimension {dim}")
    return range_projection(haar_unitary(dim, rng)[:, :rank])
