"""Quasi-representations: almost-multiplicative matrix families over a presentation.

A quasi-representation stores unit-ball matrices for the generators of a
presentation, optionally a table of values on longer group elements, and
optionally the data of a compression ``g -> V* pi(g) V`` of an honest
unitary representation.  Evaluation always goes through
``words.canonical_form`` so that, whenever the presented group is
recognizably free-abelian, the value depends on the group element and not on
the spelling of the word.  That is what makes the multiplicative defect
``||phi(s) phi(t) - phi(st)||`` meaningful.

The headline operation is ``unitarize``: given a quasi-representation whose
defect on a symmetric word set is below ``eps``, it produces a unitary-valued
one that is ``eps``-close on the set and whose defect is below ``6 * eps``.
The factor 6 is a theorem, and the test suite asserts it literally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AsymmetricSet,
    BoundViolation,
    HypothesisViolation,
    InvalidSize,
    ParseError,
)
from .matcore import (
    as_matrix,
    block_sum_many,
    dagger,
    hermitian_eigensystem,
    hermitian_rotation,
    identity,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    op_norms,
    polar_unitary,
    require_projection,
    require_unit_ball,
    require_unitary,
    spectral_tol,
)
from .seeding import haar_unitary, random_hermitian
from .words import (
    INVERSE_MODES,
    GroupWord,
    Presentation,
    canonical_form,
    fold_word,
    free_abelian_presentation,
    generator,
    inverse_images,
    presentation_from_json,
    presentation_to_json,
    word_from_text,
    word_to_text,
)

UNIT_BALL_TOL = 1e-10

FLAVORS = ("general", "unitary", "ucp-compression")


def _word_sort_key(w: GroupWord) -> tuple:
    """Total order on words: length, then letters with +1 before -1."""
    return (len(w.letters), tuple((g, 0 if e == 1 else 1) for g, e in w.letters))


def _canonical_elements(words, p: Presentation) -> dict:
    """The distinct group elements ``words`` name: canonical letters -> form."""
    out: dict[tuple, GroupWord] = {}
    for w in words:
        k = canonical_form(w, p)
        out.setdefault(k.letters, k)
    return out


def _generator_images(p: Presentation, table: dict, defaults) -> tuple:
    """Each generator's table value where it has one, else its default."""
    return tuple(
        table.get(canonical_form(generator(g), p).letters, d)
        for g, d in enumerate(defaults)
    )


@dataclass(frozen=True)
class CompressionData:
    """An honest unitary representation together with a corner to compress to.

    ``isometry`` has orthonormal columns spanning the range of ``projection``,
    so ``isometry* pi(g) isometry`` is the compressed image.
    """

    big_images: tuple[np.ndarray, ...]
    projection: np.ndarray
    isometry: np.ndarray


@dataclass(frozen=True)
class QuasiRep:
    """Unit-ball matrix images for the generators of a presentation.

    ``word_table`` (canonical letters tuple -> matrix) overrides evaluation on
    specific group elements; ``compression`` reroutes all evaluation through
    the stored honest representation; ``default_to_identity`` makes every
    element outside the table evaluate to the identity (used by ``unitarize``,
    whose construction is defined piecewise and is the identity off the
    word set it was given).

    Construction validates all data once (copying ``word_table``, never
    writing to it); ``evaluate`` folds words over the stored arrays unchecked.
    """

    presentation: Presentation
    images: tuple[np.ndarray, ...]
    flavor: str = "general"
    word_table: dict = field(default_factory=dict)
    compression: CompressionData | None = None
    default_to_identity: bool = False
    # inverse mode -> inverse_images of the matrices evaluate folds over
    _inverses: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ParseError(f"unknown flavor {self.flavor!r}")
        if len(self.images) != self.presentation.num_generators:
            raise InvalidSize("one image per generator required")
        images = tuple(as_matrix(m) for m in self.images)
        object.__setattr__(self, "images", images)
        dim = images[0].shape[0]
        whats = (f"image of generator {i}" for i in range(len(images)))
        require_unit_ball(images, dim, UNIT_BALL_TOL, whats)
        table = {key: as_matrix(value) for key, value in self.word_table.items()}
        whats = (f"table value for {key}" for key in table)
        require_unit_ball(table.values(), dim, UNIT_BALL_TOL, whats)
        object.__setattr__(self, "word_table", table)
        if self.flavor == "ucp-compression" and self.compression is None:
            raise ParseError("ucp-compression flavor requires compression data")
        comp = self.compression
        if comp is None:
            inverses = {mode: inverse_images(images, mode) for mode in INVERSE_MODES}
            if self.flavor == "unitary":
                _refuse_non_unitary(images, inverses["adjoint"], "image of generator")
        else:
            big = tuple(as_matrix(m) for m in comp.big_images)
            shape = (comp.isometry.shape[0], dim)
            if len(big) != len(images) or comp.isometry.shape != shape or any(
                m.shape[0] != shape[0] for m in big
            ):
                raise InvalidSize("compression data must match the generators")
            inverses = {"adjoint": inverse_images(big, "adjoint")}
            _refuse_non_unitary(big, inverses["adjoint"], "compressed image of generator")
            object.__setattr__(self, "compression", replace(comp, big_images=big))
        object.__setattr__(self, "_inverses", inverses)

    @property
    def dim(self) -> int:
        return int(self.images[0].shape[0])

    def default_mode(self) -> str:
        return "adjoint" if self.flavor in ("unitary", "ucp-compression") else "true-inverse"

    def evaluate(self, w: GroupWord, mode: str | None = None) -> np.ndarray:
        """Value on the group element named by ``w`` (not on the spelling)."""
        key = canonical_form(w, self.presentation)
        if not key.letters:
            return identity(self.dim)
        if self.compression is not None:
            big = fold_word(
                key, self.compression.big_images, self._inverses["adjoint"], "adjoint"
            )
            v = self.compression.isometry
            return dagger(v) @ big @ v
        hit = self.word_table.get(key.letters)
        if hit is not None:
            return hit
        if self.default_to_identity:
            return identity(self.dim)
        mode = mode or self.default_mode()
        if mode not in INVERSE_MODES:
            raise ParseError(f"unknown inverse_mode {mode!r}")
        return fold_word(key, self.images, self._inverses[mode], mode)


def _refuse_non_unitary(mats, adjoints, what: str) -> None:
    """Refuse the matrices that :func:`inverse_images` found not unitary."""
    for i, (m, adj) in enumerate(zip(mats, adjoints)):
        if adj is None:
            require_unitary(m, what=f"{what} {i}")  # raises, with the measured defect


# ---------------------------------------------------------------------------
# Defect measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefectReport:
    """Multiplicative and unitarity defects of a quasi-representation on a set.

    ``pair_defects`` maps each ordered pair (s, t) of input words to
    ``||phi(s) phi(t) - phi(st)||``; ``max_defect`` is their maximum and
    ``unitarity_defect`` is ``max_s max(||phi(s)* phi(s) - 1||,
    ||phi(s) phi(s)* - 1||)``.
    """

    pair_defects: dict
    max_defect: float
    unitarity_defect: float


def defect(phi: QuasiRep, S, mode: str | None = None) -> DefectReport:
    """Measure all ordered-pair defects of ``phi`` over the word list ``S``.

    The ``|S|^2`` product residues and ``2 |S|`` unitarity residues go to one
    :func:`op_norms` call, which streams them above ``SVD_NORM_DIM_LIMIT``.
    """
    S = list(S)
    values = [phi.evaluate(s, mode) for s in S]
    eye = identity(phi.dim)
    pairs = [(s, t) for s in S for t in S]
    residues = itertools.chain(
        (
            vs @ vt - phi.evaluate(s * t, mode)
            for s, vs in zip(S, values)
            for t, vt in zip(S, values)
        ),
        (r for v in values for r in (dagger(v) @ v - eye, v @ dagger(v) - eye)),
    )
    norms = op_norms(residues).tolist()
    pair_defects = dict(zip(pairs, norms))
    max_defect = max([0.0, *norms[:len(pairs)]])
    return DefectReport(pair_defects, max_defect, max([0.0, *norms[len(pairs):]]))


def defect_report_to_json(report: DefectReport, p: Presentation) -> dict:
    pairs = [
        {"s": word_to_text(s, p), "t": word_to_text(t, p), "defect": d}
        for (s, t), d in sorted(
            report.pair_defects.items(),
            key=lambda kv: (_word_sort_key(kv[0][0]), _word_sort_key(kv[0][1])),
        )
    ]
    return {
        "pair_defects": pairs,
        "max_defect": report.max_defect,
        "unitarity_defect": report.unitarity_defect,
    }


# ---------------------------------------------------------------------------
# Unitarization with the 6x defect guarantee
# ---------------------------------------------------------------------------

def unitarize(phi: QuasiRep, S, eps: float) -> QuasiRep:
    """Replace a small-defect quasi-representation by a unitary-valued one.

    Requires ``S`` closed under inversion, ``eps < 1`` and measured defect on
    ``S`` below ``eps``.  The output takes the unitary polar factor on the
    elements of ``S``, the product of two such factors on products of two
    elements of ``S`` (with a deterministic, lexicographically first choice
    of factorization), and the identity on everything else.  Guarantees:
    each output value is unitary, ``||sigma(s) - phi(s)|| < eps`` on ``S``,
    and the output defect on ``S`` is below ``6 * eps``.
    """
    if eps >= 1.0:
        raise BoundViolation(f"unitarization needs eps < 1, got {eps}")
    if eps <= 0.0:
        raise BoundViolation(f"unitarization needs eps > 0, got {eps}")
    S = list(S)
    keys = _canonical_elements(S, phi.presentation)
    for k in list(keys.values()):
        inv = canonical_form(k.inverse(), phi.presentation)
        if inv.letters not in keys:
            raise AsymmetricSet(
                f"word set is not closed under inversion (missing inverse of a member)"
            )
    measured = defect(phi, S)
    if measured.max_defect >= eps:
        raise HypothesisViolation(
            f"defect {measured.max_defect:.6e} is not below eps = {eps}",
            measured=measured.max_defect,
        )

    table: dict[tuple, np.ndarray] = {}
    for lk, k in keys.items():
        if not k.letters:
            continue
        table[lk] = polar_unitary(phi.evaluate(k))

    base_keys = sorted(keys.values(), key=_word_sort_key)
    for left in base_keys:
        for right in base_keys:
            prod = canonical_form(left * right, phi.presentation)
            pk = prod.letters
            if not prod.letters or pk in keys or pk in table:
                continue
            table[pk] = table[left.letters] @ table[right.letters]

    return QuasiRep(
        presentation=phi.presentation,
        images=_generator_images(phi.presentation, table, [identity(phi.dim)] * len(phi.images)),
        flavor="unitary",
        word_table=table,
        default_to_identity=True,
    )


# ---------------------------------------------------------------------------
# Complete-positivity probe
# ---------------------------------------------------------------------------

def ucp_gram_check(phi: QuasiRep, F, mode: str | None = None) -> float:
    """Smallest eigenvalue of the block Gram matrix ``[phi(g^-1 h)]``.

    A value above ``-tol`` certifies positivity of the sesquilinear form
    ``sum conj(z_g) z_h phi(g^-1 h)`` restricted to the finite set ``F``.
    The hermitian part of the block matrix is diagonalized, which is exactly
    what positivity of the form means when small defects leave the block
    matrix slightly non-hermitian.
    """
    F = list(F)
    if not F:
        raise InvalidSize("ucp_gram_check needs a nonempty word list")
    d = phi.dim
    n = len(F)
    gram = np.empty((n * d, n * d), dtype=np.complex128)
    for i, g in enumerate(F):
        for j, h in enumerate(F):
            gram[i * d:(i + 1) * d, j * d:(j + 1) * d] = phi.evaluate(
                g.inverse() * h, mode
            )
    herm = (gram + gram.conj().T) / 2.0
    return float(np.linalg.eigvalsh(herm)[0])


# ---------------------------------------------------------------------------
# Compression of honest representations
# ---------------------------------------------------------------------------

def _range_isometry(p: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the range of a projection."""
    spec = hermitian_eigensystem(p)
    mask = spec.eigenvalues > 0.5
    rank = int(mask.sum())
    if rank == 0:
        raise InvalidSize("projection has rank zero; nothing to compress to")
    return spec.vectors[:, mask]


def require_honest(big_images, p: Presentation, tol: float | None = None):
    """Check that matrices form an honest unitary representation of ``p``: each
    image unitary within ``UNITARITY_TOL`` (the ``QuasiRep`` gate), each relator
    within ``tol`` of the identity."""
    mats = tuple(as_matrix(m) for m in big_images)
    if len(mats) != p.num_generators:
        raise InvalidSize("one image per generator required")
    dim = mats[0].shape[0]
    if tol is None:
        tol = max(spectral_tol(dim), 1e-9)
    for i, m in enumerate(mats):
        require_unitary(m, what=f"image of generator {i}")
    eye = identity(dim)
    adjoints = tuple(m.conj().T for m in mats)
    relators = (fold_word(r, mats, adjoints, "adjoint") - eye for r in p.relators)
    for err in op_norms(relators).tolist():
        if err > tol:
            raise HypothesisViolation(
                f"relator evaluates {err:.3e} away from the identity; "
                "not an honest representation",
                measured=err,
            )
    return mats


def compress(big_images, proj, presentation: Presentation):
    """Corner an honest representation by a projection.

    Returns the quasi-representation ``g -> V* pi(g) V`` (with ``V`` an
    isometry onto the range of the projection) together with its defect
    report over the symmetrized generator set.  The measured generator
    defect never exceeds ``max_g ||[proj, pi(g)]|| + 1e-9``.
    """
    mats = require_honest(big_images, presentation)
    p = require_projection(proj, what="compression projection")
    if p.shape[0] != mats[0].shape[0]:
        raise InvalidSize("projection dimension must match the representation")
    v = _range_isometry(p)
    images = tuple(dagger(v) @ m @ v for m in mats)
    rep = QuasiRep(
        presentation=presentation,
        images=images,
        flavor="ucp-compression",
        compression=CompressionData(mats, p, v),
    )
    S = symmetrized_generators(presentation)
    return rep, defect(rep, S, "adjoint")


def symmetrized_generators(p: Presentation) -> list[GroupWord]:
    out = []
    for g in range(p.num_generators):
        out.append(GroupWord(((g, 1),)))
        out.append(GroupWord(((g, -1),)))
    return out


# ---------------------------------------------------------------------------
# Approximate multiplicativity audit (the sqrt(eps) bound)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplicativityAudit:
    """Measured ``||phi(gs) - phi(g) phi(s)||`` against ``sqrt(eps) + 1e-9``.

    For genuine compressions the bound is a theorem for every group element
    ``g``, so a failing entry indicates a construction bug rather than an
    unlucky sample.  ``entries`` hold (g, s, order, measured, ratio, ok).
    """

    eps: float
    bound: float
    entries: tuple
    worst_ratio: float
    passed: bool


def approx_mult_audit(phi: QuasiRep, S, g_sample) -> MultiplicativityAudit:
    S = list(S)
    report = defect(phi, S)
    eps = report.unitarity_defect
    if eps >= 1.0:
        raise HypothesisViolation(
            f"unitarity defect {eps:.6f} is not below 1", measured=eps
        )
    bound = math.sqrt(eps) + 1e-9
    g_sample = list(g_sample)
    values = [phi.evaluate(s) for s in S]

    def residues():
        for g in g_sample:
            vg = phi.evaluate(g)
            for s, vs in zip(S, values):
                yield phi.evaluate(g * s) - vg @ vs
                yield phi.evaluate(s * g) - vs @ vg

    cases = [(g, s, order) for g in g_sample for s in S for order in ("left", "right")]
    entries = tuple(
        (*case, measured, measured / bound, measured <= bound)
        for case, measured in zip(cases, op_norms(residues()).tolist())
    )
    worst = max([0.0, *(e[4] for e in entries)])
    return MultiplicativityAudit(eps, bound, entries, worst, all(e[5] for e in entries))


# ---------------------------------------------------------------------------
# Example families
# ---------------------------------------------------------------------------

def clock_shift(n: int):
    """The n-dimensional clock-and-shift pair.

    ``u`` is the diagonal of n-th roots of unity, ``v`` the cyclic shift;
    they satisfy ``u v = omega v u`` with ``omega = exp(2 pi i / n)``, so
    ``||uv - vu|| = |omega - 1| = 2 sin(pi / n)``.
    """
    if n < 2:
        raise InvalidSize(f"clock_shift needs n >= 2, got {n}")
    phases = np.exp(2j * np.pi * np.arange(n) / n)
    u = np.diag(phases).astype(np.complex128)
    v = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        v[(j + 1) % n, j] = 1.0
    u.setflags(write=False)
    v.setflags(write=False)
    return u, v


def commutation_defect(u, v) -> float:
    return op_norm(as_matrix(u) @ as_matrix(v) - as_matrix(v) @ as_matrix(u))


def voiculescu_pair(delta: float, k: int):
    """Unitary pair with commutation defect below ``delta`` and winding ``k``.

    Block sum of ``|k|`` clock-and-shift pairs of the smallest size whose
    defect beats ``delta``; the factors are swapped when ``k > 0`` because
    swapping inverts the multiplicative commutator and so negates the
    winding.  ``k = 0`` degenerates to a commuting 1x1 pair.
    """
    if not 0.0 < delta < math.inf:  # NaN fails both comparisons
        raise HypothesisViolation(f"delta must be positive and finite, got {delta}")
    if k == 0:
        one = identity(1)
        return one, one
    n = 2
    while 2.0 * math.sin(math.pi / n) >= delta:
        n += 1
    u1, v1 = clock_shift(n)
    if k > 0:
        u1, v1 = v1, u1
    u = block_sum_many([u1] * abs(k))
    v = block_sum_many([v1] * abs(k))
    return u, v


def unitary_pair_rep(u, v) -> QuasiRep:
    """Wrap a unitary pair as a quasi-representation of the free-abelian plane."""
    return QuasiRep(
        presentation=free_abelian_presentation(2),
        images=(as_matrix(u), as_matrix(v)),
        flavor="unitary",
    )


def honest_commuting_rep(p: Presentation, dim: int, rng) -> QuasiRep:
    """Honest unitary representation with commuting images (shared eigenbasis).

    Works whenever every relator has vanishing exponent sums (free-abelian
    and orientable-surface presentations do); otherwise the relator check
    fails loudly.
    """
    q = haar_unitary(dim, rng)
    images = []
    for _ in range(p.num_generators):
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=dim))
        images.append(q @ np.diag(phases) @ q.conj().T)
    require_honest(images, p, tol=1e-8)
    return QuasiRep(p, tuple(images), flavor="unitary")


def perturbed_honest_rep(p: Presentation, S, eps: float, dim: int, rng) -> QuasiRep:
    """Random quasi-representation with defect strictly below ``eps`` on ``S``.

    Starts from a commuting honest representation and perturbs its value on
    each needed group element independently by a small rotation and a small
    contraction.  With rotation angles below ``eps / 4`` and contraction
    below ``eps / 16`` the triangle inequality keeps every pair defect at or
    below ``15 eps / 16``.
    """
    if not 0.0 < eps < math.inf:  # NaN fails both comparisons
        raise HypothesisViolation(f"eps must be positive and finite, got {eps}")
    base = honest_commuting_rep(p, dim, rng)
    S = list(S)
    needed = _canonical_elements([*S, *(s * t for s in S for t in S)], p)
    eta = eps / 4.0
    table: dict[tuple, np.ndarray] = {}
    for lk, w in needed.items():
        if not w.letters:
            continue
        h = random_hermitian(dim, rng, norm=1.0)
        theta = rng.uniform(0.0, eta)
        shrink = rng.uniform(0.0, eta / 4.0)
        rot = hermitian_rotation(h, theta)
        table[lk] = (1.0 - shrink) * (rot @ base.evaluate(w))
    return QuasiRep(p, _generator_images(p, table, base.images), word_table=table)


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------

def quasirep_to_json(phi: QuasiRep) -> dict:
    out = {
        "presentation": presentation_to_json(phi.presentation),
        "flavor": phi.flavor,
        "images": [matrix_to_json(m) for m in phi.images],
    }
    if phi.word_table:
        out["word_table"] = {
            word_to_text(GroupWord(k), phi.presentation): matrix_to_json(v)
            for k, v in sorted(phi.word_table.items())
        }
    if phi.compression is not None:
        out["compression"] = {
            "big_images": [matrix_to_json(m) for m in phi.compression.big_images],
            "projection": matrix_to_json(phi.compression.projection),
        }
    if phi.default_to_identity:
        out["default_to_identity"] = True
    return out


def quasirep_from_json(obj) -> QuasiRep:
    try:
        pres = presentation_from_json(obj["presentation"])
        flavor = str(obj.get("flavor", "general"))
        images = tuple(matrix_from_json(m) for m in obj["images"])
        table = {}
        for text, mat in obj.get("word_table", {}).items():
            w = canonical_form(word_from_text(text, pres), pres)
            table[w.letters] = matrix_from_json(mat)
        compression = None
        if "compression" in obj:
            comp = obj["compression"]
            big = tuple(matrix_from_json(m) for m in comp["big_images"])
            proj = require_projection(matrix_from_json(comp["projection"]))
            compression = CompressionData(big, proj, _range_isometry(proj))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed quasi-representation JSON: {exc}") from exc
    return QuasiRep(
        presentation=pres,
        images=images,
        flavor=flavor,
        word_table=table,
        compression=compression,
        default_to_identity=bool(obj.get("default_to_identity", False)),
    )
