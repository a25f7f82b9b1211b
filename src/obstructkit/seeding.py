"""Deterministic randomness: every randomized routine takes an explicit seed.

All generators derive from a counter-based bit stream (Philox) through
``numpy``'s ``SeedSequence`` so that (master seed, suite index, trial index)
fully determines a trial, independent of execution order or thread count.
No code in this package touches the global numpy RNG.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSize
from .matcore import require_indexable, sealed


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


def random_hermitian(dim: int, rng: np.random.Generator, norm: float = 1.0) -> np.ndarray:
    """Random hermitian matrix rescaled to operator norm exactly ``norm``."""
    shape = require_indexable((dim, dim))
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h = (z + z.conj().T) / 2.0
    top = float(np.linalg.norm(h, 2))
    if top == 0.0:
        return sealed(np.zeros((dim, dim), dtype=np.complex128))
    return sealed(h * (norm / top))


def random_projection(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-``rank`` orthogonal projection with Haar-random range."""
    if not 0 <= rank <= dim:
        raise InvalidSize(f"rank {rank} out of range for dimension {dim}")
    u = haar_unitary(dim, rng)
    cols = u[:, :rank]
    p = cols @ cols.conj().T
    return sealed((p + p.conj().T) / 2.0)
