"""Quasi-representations: almost-multiplicative matrix families over a presentation.

A quasi-representation stores unit-ball matrices for the generators of a
presentation, optionally a table of values on longer group elements, and
optionally the data of a compression ``g -> V* pi(g) V`` of an honest
unitary representation.  Evaluation always goes through
``words.canonical_form`` so that, whenever the presented group is
recognizably free-abelian, the value depends on the group element and not on
the spelling of the word.  That is what makes the multiplicative defect
``||phi(s) phi(t) - phi(st)||`` meaningful.

Evaluate once, compute on stacks: ``defect``, ``approx_mult_audit`` and
``unitarize`` evaluate each distinct element they meet once, keyed by its
canonical letters.  Up to ``SVD_NORM_DIM_LIMIT`` the values are gathered
into one ``(k, d, d)`` stack, and every residue ``phi(s) phi(t) - phi(st)``
or ``v* v - 1`` comes from one batched matmul; above it the residues stream
to ``op_norms`` one at a time, the split ``op_norms`` itself makes, so a set
of large residues is never held at once.  A batched matmul makes the same
per-matrix BLAS call, in the same order, as the loop it replaces, so every
value is the loop's to the bit.

The headline operation is ``unitarize``: given a quasi-representation whose
defect on a symmetric word set is below ``eps``, it produces a unitary-valued
one that is ``eps``-close on the set and whose defect is below ``6 * eps``.
The factor 6 is a theorem, and the test suite asserts it literally.
"""

from __future__ import annotations

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
    Labels,
    as_matrices,
    identity,
    json_value,
    matrix_from_json,
    matrix_to_json,
    SVD_NORM_DIM_LIMIT,
    op_norms,
    polar_unitaries,
    require_indexable,
    require_projection,
    require_unit_ball,
    screened_norms,
    sealed,
    spectral_split,
    spectral_tol,
)
from .seeding import gaussian_hermitian, haar_unitary, rotations
from .words import (
    GroupWord,
    Presentation,
    adjoints,
    canonical_form,
    exponent_sums,
    fold_word,
    free_abelian_presentation,
    generator,
    inverses,
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
    """The distinct nonidentity elements ``words`` (words or their letters)
    name: canonical letters -> form."""
    out: dict[tuple, GroupWord] = {}
    for w in words:
        k = canonical_form(w, p)
        if k.letters:
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
    specific group elements, so a key other than its own canonical form, or
    the identity's ``()``, would never be read and is refused;
    ``compression`` reroutes all evaluation through the stored honest
    representation, so it takes neither of the other two fields, which it
    would never read, and ``images`` other than its ``V* pi(g) V`` to the bit
    are refused (:class:`ParseError`); ``default_to_identity`` makes
    every element outside the table evaluate to the identity (used by
    ``unitarize``, whose construction is the identity off its word set).

    Construction validates all data once (copying ``word_table``, never
    writing to it); ``evaluate`` folds words over the stored arrays unchecked.
    Every shape (images, table values, compression data) is checked before
    any value, so a malformed family exits 1 whatever its values.
    An inverse letter is the adjoint, behind the :func:`words.adjoints` gate,
    for the ``"unitary"`` flavor and compressions, else the matrix inverse.
    This is the library's only unitarity gate on generator images, one call
    for all, before the unit-ball check: the first nearly unitary image is
    refused as :class:`NotUnitary`.  :func:`require_honest` reuses its table.
    """

    presentation: Presentation
    images: tuple[np.ndarray, ...]
    flavor: str = "general"
    word_table: dict = field(default_factory=dict)
    compression: CompressionData | None = None
    default_to_identity: bool = False
    # fold_word's (matrices, inverses) for evaluate: the adjoints of a
    # unitary or compressed rep, else the matrix inverses
    _fold: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ParseError(f"unknown flavor {self.flavor!r}")
        comp = self.compression
        if (self.flavor == "ucp-compression") != (comp is not None):
            raise ParseError("the ucp-compression flavor and compression data go together")
        if comp is not None and (self.word_table or self.default_to_identity):
            raise ParseError("compression data take no word_table or default_to_identity")
        p = self.presentation
        if len(self.images) != p.num_generators:
            raise InvalidSize("one image per generator required")
        for key in self.word_table:
            # a key the library built is its form's own letters tuple, which the
            # memo answers; any other key is read as a word, which checks it
            if not key or (canonical_form(key, p).letters is not key
                           and canonical_form(GroupWord(key), p).letters != key):
                raise ParseError(f"table key {key} is not a nonidentity canonical form")
        n, keys = len(self.images), list(self.word_table)
        whats = Labels(lambda i: f"image of generator {i}" if i < n else
                       f"table value for {keys[i - n]}")
        images = tuple(as_matrices(self.images, whats))
        dim = images[0].shape[0]
        values = as_matrices(self.word_table.values(), Labels(lambda i: whats[n + i]), dim)
        if comp is not None:
            v = comp.isometry
            names = Labels("compressed image of generator {}".format)
            big = tuple(as_matrices(comp.big_images, names, v.shape[0]))
            if len(big) != len(images) or v.shape != (v.shape[0], dim):
                raise InvalidSize("compression data must match the generators")
            fold = (big, adjoints(big, "compressed image of generator"))
            if not all(map(np.array_equal, images, _corners(big, v))):
                raise ParseError("images differ from the compression V* pi(g) V")
            object.__setattr__(self, "compression", replace(comp, big_images=big))
        elif self.flavor == "unitary":
            fold = (images, adjoints(images, "image of generator"))
        else:
            fold = (images, inverses(images))
        require_unit_ball(images + values, UNIT_BALL_TOL, whats)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "word_table", dict(zip(self.word_table, values)))
        object.__setattr__(self, "_fold", fold)

    @property
    def dim(self) -> int:
        return int(self.images[0].shape[0])

    def evaluate(self, w: GroupWord) -> np.ndarray:
        """Value on the group element named by ``w`` (not on the spelling)."""
        key = canonical_form(w, self.presentation)
        if not key.letters:
            return identity(self.dim)
        if self.compression is not None:
            v = self.compression.isometry
            return sealed(v.conj().T @ fold_word(key, *self._fold) @ v)
        hit = self.word_table.get(key.letters)
        if hit is not None:
            return hit
        if self.default_to_identity:
            return identity(self.dim)
        return sealed(fold_word(key, *self._fold))


def _corners(big, v) -> tuple:
    """``V* pi(g) V`` of each big image: the one formula for compression images."""
    vh = v.conj().T
    return tuple(sealed(vh @ m @ v) for m in big)


def _folds(rep: QuasiRep, forms) -> np.ndarray:
    """:func:`words.fold_word` of each nonidentity form over the fold table of
    a unitary-flavor ``rep``, as one ``(k, d, d)`` stack: one batched matmul
    per letter position, each matrix the fold's own left-to-right product."""
    mats, adjs = rep._fold
    factors = np.array([*mats, *adjs])
    rows = [[g if e == 1 else len(mats) + g for g, e in w.letters] for w in forms]
    out = factors[[r[0] for r in rows]]
    for j in range(1, max(map(len, rows))):
        live = [i for i, r in enumerate(rows) if len(r) > j]
        out[live] = out[live] @ factors[[rows[i][j] for i in live]]
    return out


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


def defect(phi: QuasiRep, S) -> DefectReport:
    """Measure all ordered-pair defects of ``phi`` over the word list ``S``.

    On a unitary-flavor rep with no table, where each member of ``S`` is a
    generator letter or the identity and its inverse is in ``S``,
    ``phi(s^-1)`` is ``phi(s)*`` to the bit, so the (s, s^-1) and (s^-1, s)
    residues are ``v v* - 1`` and ``v* v - 1``: the unitarity defect is read
    off those pair norms instead of being formed again.
    """
    S = list(S)
    value = {}
    keys = _evaluated(phi, S, value)
    pairs = [(a, b) for a in keys for b in keys]
    norms = _product_norms(phi, value, pairs)
    inverse = {k: tuple((g, -e) for g, e in reversed(k)) for k in keys}
    if phi.flavor == "unitary" and not phi.word_table and all(
            len(k) < 2 and i in inverse for k, i in inverse.items()):
        unitarity = max([0.0, *(n for (a, b), n in zip(pairs, norms) if b == inverse[a])])
    else:
        unitarity = _unitarity_defect(phi, [value[k] for k in inverse])
    pair_defects = dict(zip(((s, t) for s in S for t in S), norms))
    return DefectReport(pair_defects, max([0.0, *norms]), unitarity)


def _evaluated(phi: QuasiRep, words, value: dict) -> list:
    """The canonical letters of each word (or letters tuple), in order;
    ``value`` (canonical letters -> ``phi``) gains ``phi`` on each element it
    lacks, each evaluated once."""
    p = phi.presentation
    keys = []
    for w in words:
        k = canonical_form(w, p)
        if k.letters not in value:
            value[k.letters] = phi.evaluate(k)
        keys.append(k.letters)
    return keys


def _product_norms(phi: QuasiRep, value: dict, pairs) -> list:
    """``||phi(s) phi(t) - phi(st)||`` for each pair (s, t) of canonical
    letters, in order: :func:`op_norms` of :func:`_product_residues`."""
    return op_norms(_product_residues(phi, value, pairs)).tolist()


def _product_residues(phi: QuasiRep, value: dict, pairs):
    """``phi(s) phi(t) - phi(st)`` for each pair (s, t) of canonical letters,
    in order, with ``phi(s)`` and ``phi(t)`` read from ``value``.

    Up to ``SVD_NORM_DIM_LIMIT``, ``value`` gains each product element,
    evaluated once, and the residues are one batched ``left @ right - prod``
    over a stack of its values; above it they are a stream, ``phi(st)``
    evaluated per pair, so a norm kernel holds one at a time.
    """
    if not pairs:
        return ()
    p = phi.presentation
    if phi.dim > SVD_NORM_DIM_LIMIT:
        return (value[a] @ value[b] - phi.evaluate(canonical_form(a + b, p)) for a, b in pairs)
    prods = _evaluated(phi, [a + b for a, b in pairs], value)
    row = dict(zip(value, range(len(value))))
    stack = np.array(list(value.values()))
    left, right, prod = (stack[[row[k] for k in ks]] for ks in (*zip(*pairs), prods))
    return left @ right - prod


def _unitarity_defect(phi: QuasiRep, values) -> float:
    """``max_v max(||v* v - 1||, ||v v* - 1||)`` over the values ``phi(s)``,
    0 on none: one batched product per side up to ``SVD_NORM_DIM_LIMIT``,
    streamed above it."""
    eye = identity(phi.dim)
    if phi.dim > SVD_NORM_DIM_LIMIT:
        residues = (r for v in values for r in (v.conj().T @ v - eye, v @ v.conj().T - eye))
    else:
        v = np.array(values).reshape(-1, phi.dim, phi.dim)
        vh = v.conj().transpose(0, 2, 1)
        residues = np.concatenate((vh @ v, v @ vh)) - eye
    return max([0.0, *op_norms(residues).tolist()])


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
    if not 0.0 < eps < 1.0:  # NaN fails both comparisons
        raise BoundViolation(f"unitarization needs 0 < eps < 1, got {eps}", measured=eps)
    S = list(S)
    p = phi.presentation
    keys = _canonical_elements(S, p)
    for k in keys.values():
        if canonical_form(k.inverse(), p).letters not in keys:
            raise AsymmetricSet("word set is not closed under inversion "
                                "(missing inverse of a member)")
    value = {}
    s_keys = _evaluated(phi, S, value)
    pairs = [(a, b) for a in s_keys for b in s_keys]
    refused = screened_norms(_product_residues(phi, value, pairs), math.nextafter(eps, 0.0))
    if refused:
        measured = max(refused.values())
        raise HypothesisViolation(
            f"defect {measured:.6e} is not below eps = {eps}", measured=measured
        )

    # one stacked SVD in key order, so the first singular key is the one refused
    values = np.array([value[k] for k in keys]).reshape(-1, phi.dim, phi.dim)
    unitaries = polar_unitaries(values)
    table = dict(zip(keys, unitaries))

    # each new product element keyed by its first factorization in word
    # order, all formed by one batched matmul
    row = dict(zip(keys, range(len(keys))))
    base_keys = sorted(keys.values(), key=_word_sort_key)
    firsts = {}
    for left in base_keys:
        for right in base_keys:
            pk = canonical_form(left.letters + right.letters, p).letters
            if pk and pk not in table:
                firsts.setdefault(pk, (row[left.letters], row[right.letters]))
    if firsts:
        i, j = (list(ix) for ix in zip(*firsts.values()))
        table.update(zip(firsts, sealed(unitaries[i] @ unitaries[j])))

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

def ucp_gram_check(phi: QuasiRep, F) -> float:
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
    n, d = len(F), phi.dim
    blocks = np.array([[phi.evaluate(g.inverse() * h) for h in F] for g in F])
    gram = blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    herm = (gram + gram.conj().T) / 2.0
    return float(np.linalg.eigvalsh(herm)[0])


# ---------------------------------------------------------------------------
# Compression of honest representations
# ---------------------------------------------------------------------------

def require_honest(rep: QuasiRep) -> QuasiRep:
    """Check that a unitary-flavor or compression ``rep`` is honest: each
    relator, folded over the images and adjoints its construction gated as
    unitary (the big images of a compression), evaluates within
    ``max(spectral_tol(dim), 1e-9)`` of the identity.  The unitarity gate
    itself lives in :class:`QuasiRep`; a general-flavor rep has no such
    table and is refused.  Returns ``rep``."""
    if rep.compression is None and rep.flavor != "unitary":
        raise ParseError("an honest representation needs the unitary flavor or compression data")
    dim = rep._fold[0][0].shape[0]
    tol = max(spectral_tol(dim), 1e-9)
    eye = identity(dim)
    relators = (fold_word(r, *rep._fold) - eye for r in rep.presentation.relators)
    for err in screened_norms(relators, tol).values():
        raise HypothesisViolation(
            f"relator evaluates {err:.3e} away from the identity; "
            "not an honest representation",
            measured=err,
        )
    return rep


def compress(big_images, proj, presentation: Presentation) -> QuasiRep:
    """Corner an honest representation by a projection.

    Returns the quasi-representation ``g -> V* pi(g) V``, with ``V`` an
    isometry onto the range of the projection.  Its defect over the
    symmetrized generators, ``defect(rep, symmetrized_generators(presentation))``,
    never exceeds ``max_g ||[proj, pi(g)]|| + 1e-9``.
    """
    big_images = list(big_images)
    whats = [f"compressed image of generator {i}" for i in range(len(big_images))]
    *mats, p = as_matrices([*big_images, proj], [*whats, "compression projection"])
    require_projection(p, what="compression projection")
    # p passed the hermiticity gate of require_projection, so no second one
    v = spectral_split((p + p.conj().T) / 2.0, 0.5, 0.0)[1]
    if v.shape[1] == 0:
        raise InvalidSize("projection has rank zero; nothing to compress to")
    rep = QuasiRep(
        presentation=presentation,
        images=_corners(mats, v),
        flavor="ucp-compression",
        compression=CompressionData(mats, p, v),
    )
    return require_honest(rep)


def symmetrized_generators(p: Presentation) -> list[GroupWord]:
    return [GroupWord(((g, e),)) for g in range(p.num_generators) for e in (1, -1)]


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
    S, g_sample = list(S), list(g_sample)
    value = {}
    s_keys = _evaluated(phi, S, value)
    g_keys = _evaluated(phi, g_sample, value)
    eps = _unitarity_defect(phi, [value[k] for k in dict.fromkeys(s_keys)])
    if eps >= 1.0:
        raise HypothesisViolation(
            f"unitarity defect {eps:.6f} is not below 1", measured=eps
        )
    bound = math.sqrt(eps) + 1e-9
    cases = [(g, s, order) for g in g_sample for s in S for order in ("left", "right")]
    pairs = [pair for a in g_keys for b in s_keys for pair in ((a, b), (b, a))]
    entries = tuple(
        (*case, measured, measured / bound, measured <= bound)
        for case, measured in zip(cases, _product_norms(phi, value, pairs))
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
    u = np.zeros(require_indexable((n, n)), dtype=np.complex128)
    v = np.zeros_like(u)
    at = np.arange(n)
    u[at, at] = np.exp(2j * np.pi * at / n)
    v[(at + 1) % n, at] = 1.0
    return sealed(u), sealed(v)


def commutation_defect(u, v) -> float:
    u, v = as_matrices((u, v), ("u", "v"))
    return op_norms((u @ v - v @ u)[None]).item()


def voiculescu_pair(delta: float, k: int):
    """Unitary pair with commutation defect below ``delta`` and winding ``k``.

    Block sum of ``|k|`` clock-and-shift pairs of the smallest size whose
    defect beats ``delta``; the factors are swapped when ``k > 0`` because
    swapping inverts the multiplicative commutator and so negates the
    winding.  ``k = 0`` degenerates to a commuting 1x1 pair.
    """
    if not 0.0 < delta < math.inf:  # NaN fails both comparisons
        raise BoundViolation(f"delta must be positive and finite, got {delta}", measured=delta)
    if k == 0:
        one = identity(1)
        return one, one
    try:
        n = _block_size(delta)
    except (OverflowError, ZeroDivisionError) as exc:
        raise InvalidSize(f"the pair for delta = {delta}, k = {k} is too large: {exc}") from exc
    # both outputs exist before any block: past the address space, this fails
    u = np.zeros(require_indexable((n * abs(k),) * 2), dtype=np.complex128)
    v = np.zeros_like(u)
    u1, v1 = clock_shift(n)
    if k > 0:
        u1, v1 = v1, u1
    at = np.arange(abs(k))
    for out, block in ((u, u1), (v, v1)):
        out.reshape(abs(k), n, abs(k), n)[at, :, at, :] = block
    return sealed(u), sealed(v)


def _block_size(delta: float) -> int:
    """Smallest ``n >= 2`` with ``2 sin(pi / n) < delta``.  As ``sin`` increases
    on (0, pi/2], that is ``n > pi / asin(delta / 2)``: the search starts one
    below, which rounding cannot carry past the answer."""
    n = max(2, math.floor(math.pi / math.asin(min(delta / 2.0, 1.0))) - 1)
    if n > 2**53:  # n + 1 would round to n, and the search would not end
        raise OverflowError(f"blocks of size {n:.3e} are past any array size")
    while 2.0 * math.sin(math.pi / n) >= delta:
        n += 1
    return n


def unitary_pair_rep(u, v) -> QuasiRep:
    """Wrap a unitary pair as a quasi-representation of the free-abelian plane."""
    return QuasiRep(
        presentation=free_abelian_presentation(2),
        images=(u, v),
        flavor="unitary",
    )


def honest_commuting_rep(p: Presentation, dim: int, rng) -> QuasiRep:
    """Honest unitary representation with commuting images (shared eigenbasis).

    Draws one Haar basis ``q``, then one eigenvalue vector per generator:
    random phases when every relator has vanishing exponent sums
    (free-abelian and orientable-surface presentations), else random signs,
    which satisfy every relator whose exponent sums are all even (such as
    ``a_1^2 ... a_g^2``).  The relator check of :func:`require_honest`
    decides: any other relator fails it loudly.
    """
    q = haar_unitary(dim, rng)
    balanced = not any(any(exponent_sums(r, p.num_generators)) for r in p.relators)
    images = []
    for _ in range(p.num_generators):
        if balanced:
            eigs = np.exp(1j * rng.uniform(-np.pi, np.pi, size=dim))
        else:
            eigs = np.where(rng.integers(0, 2, size=dim) == 0, 1.0, -1.0)
        images.append(sealed(q @ np.diag(eigs) @ q.conj().T))
    return require_honest(QuasiRep(p, tuple(images), flavor="unitary"))


def perturbed_honest_rep(p: Presentation, S, eps: float, dim: int, rng) -> QuasiRep:
    """Random quasi-representation with defect strictly below ``eps`` on ``S``.

    Starts from a commuting honest representation and perturbs its value on
    each needed group element independently by a small rotation and a small
    contraction.  With rotation angles below ``eps / 4`` and contraction
    below ``eps / 16`` the triangle inequality keeps every pair defect at or
    below ``15 eps / 16``.  The draws run per entry, in table order; the solve
    runs once: one batched ``eigh`` (:func:`seeding.rotations`), one product
    with the base values, folded by :func:`_folds` one letter position at a time.
    """
    if not 0.0 < eps < 1.0:  # NaN fails both comparisons
        raise BoundViolation(f"eps must be positive and below 1, got {eps}", measured=eps)
    base = honest_commuting_rep(p, dim, rng)
    S = list(S)
    words = _canonical_elements([*S, *(s.letters + t.letters for s in S for t in S)], p)
    if not words:
        return QuasiRep(p, base.images)
    eta = eps / 4.0
    draws = [(rng.uniform(0.0, eta), gaussian_hermitian(dim, rng), rng.uniform(0.0, eta / 4.0))
             for _ in words]
    angles, hs, shrinks = map(np.array, zip(*draws))
    rotated = rotations(hs, angles) @ _folds(base, words.values())
    table = dict(zip(words, sealed((1.0 - shrinks)[:, None, None] * rotated)))
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
    """Decode :func:`quasirep_to_json` output.  Two ``word_table`` texts of one
    canonical form are a :class:`ParseError`, and so are stored images, flavor
    or extra fields that differ from the ``"compression"`` that
    :func:`compress` rebuilds from its big images and projection, refusing a
    non-representation."""
    try:
        pres = presentation_from_json(obj["presentation"])
        flavor = json_value(obj.get("flavor", "general"), (str,), "flavor")
        images = tuple(matrix_from_json(m) for m in obj["images"])
        table = {}
        for text, mat in obj.get("word_table", {}).items():
            w = canonical_form(word_from_text(text, pres), pres)
            if w.letters in table:
                raise ParseError(f"word_table text {text!r} names an element already in the table")
            table[w.letters] = matrix_from_json(mat)
        default = obj.get("default_to_identity", False)
        default = json_value(default, (bool,), "default_to_identity")
        if "compression" in obj:
            comp = obj["compression"]
            big = tuple(matrix_from_json(m) for m in comp["big_images"])
            proj = matrix_from_json(comp["projection"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed quasi-representation JSON: {exc}") from exc
    if "compression" not in obj:
        return QuasiRep(pres, images, flavor, table, default_to_identity=default)
    rep = compress(big, proj, pres)
    stored = (flavor, len(images), bool(table), default)
    if stored != (rep.flavor, len(rep.images), False, False) or not all(
        map(np.array_equal, images, rep.images)
    ):
        raise ParseError("stored images, flavor or fields differ from the compression V* pi(g) V")
    return rep
