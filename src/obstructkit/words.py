"""Free-group word calculus over a finite presentation.

Words are sequences of letters ``(generator_index, exponent)`` with exponent
``+1`` or ``-1``.  The text format is one character per letter: a lowercase
letter is a generator, the matching uppercase letter is its inverse, so
``"abAB"`` is the commutator ``a b a^-1 b^-1``.

Alongside free reduction this module knows one nontrivial normal form:
when a presentation is recognizably free-abelian (every pair of generators
commutes and nothing else is imposed), ``canonical_form`` sorts a word into
``g_0^{e_0} g_1^{e_1} ...``.  That is what lets evaluation of a
quasi-representation depend on the group element rather than on the
spelling of the word.

``canonical_form`` is the one place a word meets its presentation: it
refuses a generator outside it, its letters key every word table, and
``fold_word`` trusts them.

Each presentation memoizes its canonical forms, keyed by the letters tuple
of the word and of its form, up to ``CANONICAL_MEMO_SIZE`` entries; a full
memo is emptied before it takes the next one.  Only a form that was computed
stores anything, so a word the presentation refuses is refused on every
call, warm memo or cold.  A hit builds no word: callers pass the letters of
a product, ``s.letters + t.letters``, and only a miss builds (and so
validates) the :class:`GroupWord`.

An inverse letter evaluates through a table: :func:`adjoints`, the one
unitarity gate behind every adjoint, one call per family of images, or the
true inverses of :func:`inverses`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import InvalidSize, NotInCommutatorSubgroup, NotInvertible, ParseError
from .matcore import UNITARITY_TOL, Labels, identity, json_value, require_unitary, sealed

Letter = tuple[int, int]

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"

# entries per presentation's canonical_form memo: a genus-2 unitarize trial
# stores 73, and a full memo costs well under a megabyte
CANONICAL_MEMO_SIZE = 4096
# a miss's size check and its two stores are one step, so threads sharing a
# presentation keep its memo under the cap
_MEMO_LOCK = threading.Lock()


@dataclass(frozen=True)
class GroupWord:
    """A word in the free group: an ordered tuple of (generator, ±1) letters."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        if not isinstance(self.letters, tuple):
            raise ParseError(f"a word is a tuple of letters, got {self.letters!r}")
        for x in self.letters:
            if not (isinstance(x, tuple) and len(x) == 2 and type(x[0]) is int
                    and x[0] >= 0 and type(x[1]) is int and x[1] in (1, -1)):
                raise ParseError(f"a letter is a (generator index >= 0, ±1) pair, got {x!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not reduce(self).letters


IDENTITY_WORD = GroupWord()


def generator(index: int) -> GroupWord:
    return GroupWord(((index, 1),))


def reduce(w: GroupWord) -> GroupWord:
    """Free reduction: cancel adjacent inverse pairs until none remain.

    A word with nothing to cancel is its own reduction and is returned as is.
    """
    stack: list[Letter] = []
    for g, e in w.letters:
        if stack and stack[-1][0] == g and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((g, e))
    return w if len(stack) == len(w.letters) else GroupWord(tuple(stack))


def exponent_sums(w: GroupWord, n_generators: int) -> tuple[int, ...]:
    """Signed letter count per generator; all-zero iff w is in [F, F]."""
    sums = [0] * n_generators
    for g, e in w.letters:
        if g >= n_generators:
            raise ParseError(
                f"word uses generator {g} but only {n_generators} are declared"
            )
        sums[g] += e
    return tuple(sums)


@dataclass(frozen=True)
class CommutatorDecomposition:
    """A witnessed product-of-commutators expression for a word in [F, F].

    ``prod [a_i, b_i]`` freely reduces to the decomposed word; the number of
    pairs is whatever the rewriting produced, with no minimality claim.
    """

    pairs: tuple[tuple[GroupWord, GroupWord], ...]
    witness_product: GroupWord

    @classmethod
    def from_pairs(cls, pairs) -> "CommutatorDecomposition":
        """The decomposition of ``prod [a_i, b_i]`` over the given word pairs."""
        witness = IDENTITY_WORD
        for a, b in pairs:
            witness = witness * _commutator_word(a, b)
        return cls(tuple(pairs), reduce(witness))


def _commutator_word(a: GroupWord, b: GroupWord) -> GroupWord:
    return a * b * a.inverse() * b.inverse()


def commutator_decompose(w: GroupWord) -> CommutatorDecomposition:
    """Rewrite a word with vanishing exponent sums as a commutator product.

    Peels letters front-to-back: if the word starts with ``g^e``, some later
    ``g^-e`` exists, and ``g^e x g^-e y = [g^e, x] (x y)`` strictly shortens
    the remainder.  Raises :class:`NotInCommutatorSubgroup` when any
    exponent sum is nonzero.
    """
    n = 1 + max((g for g, _ in w.letters), default=0)
    if any(exponent_sums(w, n)):
        raise NotInCommutatorSubgroup(
            f"exponent sums {exponent_sums(w, n)} are not all zero"
        )
    pairs: list[tuple[GroupWord, GroupWord]] = []
    rest = reduce(w)
    while rest.letters:
        g, e = rest.letters[0]
        tail = rest.letters[1:]
        pos = next(i for i, (h, f) in enumerate(tail) if h == g and f == -e)
        x = GroupWord(tail[:pos])
        y = GroupWord(tail[pos + 1:])
        if x.letters:
            pairs.append((GroupWord(((g, e),)), x))
        rest = reduce(x * y)
    return CommutatorDecomposition.from_pairs(pairs)


def adjoints(mats, what: str) -> tuple:
    """The unitarity gate: read-only adjoints of validated images, all unitary
    within ``UNITARITY_TOL`` by one :func:`matcore.require_unitary` call, or
    the first that is not refused as ``f"{what} {i}"`` (:class:`NotUnitary`)."""
    require_unitary(mats, UNITARITY_TOL, Labels(lambda i: f"{what} {i}"))
    return tuple(sealed(m.conj().T) for m in mats)


def inverses(mats) -> tuple:
    """Per validated image, its read-only matrix inverse, or None if singular."""
    out = []
    for m in mats:
        try:
            out.append(sealed(np.linalg.inv(m)))
        except np.linalg.LinAlgError:
            out.append(None)
    return tuple(out)


def fold_word(w: GroupWord, mats, inverses) -> np.ndarray:
    """Strict left fold of ``w`` over validated images and their :func:`adjoints`
    or :func:`inverses`; the letters are trusted (None means singular)."""
    out = None
    for g, e in w.letters:
        factor = mats[g] if e == 1 else inverses[g]
        if factor is None:
            raise NotInvertible(f"image of generator {g} is singular")
        out = factor if out is None else out @ factor
    return identity(mats[0].shape[0]) if out is None else out


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Presentation:
    """A finite presentation: named generators plus relator words."""

    num_generators: int
    generator_names: tuple[str, ...]
    relators: tuple[GroupWord, ...] = ()
    # is_free_abelian, computed once at construction for canonical_form
    free_abelian: bool = field(init=False, repr=False, compare=False)
    # canonical_form's memo: letters tuple -> form, computed forms only
    _forms: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.num_generators < 1:
            raise InvalidSize("a presentation needs at least one generator")
        if len(self.generator_names) != self.num_generators:
            raise ParseError("one name per generator required")
        if len(set(self.generator_names)) != self.num_generators:
            raise ParseError("generator names must be distinct")
        for name in self.generator_names:
            if len(name) != 1 or not name.islower() or not name.isalpha():
                raise ParseError(
                    f"generator names must be single lowercase letters, got {name!r}"
                )
        for r in self.relators:
            exponent_sums(r, self.num_generators)  # raises on out-of-range letters
        object.__setattr__(self, "free_abelian", is_free_abelian(self))


def _default_names(n: int) -> tuple[str, ...]:
    if n > len(_ALPHABET):
        raise InvalidSize(f"at most {len(_ALPHABET)} named generators supported")
    return tuple(_ALPHABET[:n])


def free_presentation(n: int) -> Presentation:
    return Presentation(n, _default_names(n), ())


def free_abelian_presentation(n: int) -> Presentation:
    """Z^n: all pairwise commutators as relators (none needed for n = 1)."""
    names = _default_names(n)  # refuses before any relator is built
    rels = tuple(
        _commutator_word(generator(i), generator(j))
        for i, j in combinations(range(n), 2)
    )
    return Presentation(n, names, rels)


def surface_presentation(genus: int, orientable: bool = True) -> Presentation:
    """Orientable: ``prod [a_i, b_i]``; non-orientable: ``a_1^2 ... a_g^2``."""
    if genus < 1:
        raise InvalidSize("genus must be at least 1")
    names = _default_names(2 * genus if orientable else genus)  # before any word
    rel = IDENTITY_WORD
    for i in range(genus):
        if orientable:
            rel = rel * _commutator_word(generator(2 * i), generator(2 * i + 1))
        else:
            rel = rel * generator(i) * generator(i)
    return Presentation(len(names), names, (reduce(rel),))


def baumslag_solitar_presentation(n: int, m: int) -> Presentation:
    """BS(n, m) = <a, b | a b^n a^-1 b^-m>."""
    if n == 0 or m == 0:
        raise InvalidSize("Baumslag-Solitar parameters must be nonzero")
    a, b = generator(0), generator(1)
    bn = GroupWord(((1, 1 if n > 0 else -1),) * abs(n))
    bm = GroupWord(((1, 1 if m > 0 else -1),) * abs(m))
    rel = a * bn * a.inverse() * bm.inverse()
    return Presentation(2, _default_names(2), (reduce(rel),))


def is_free_abelian(p: Presentation) -> bool:
    """Recognize Z^n given as: all pairwise generator commutators, nothing else.

    A relator counts when it reduces to ``(g, e)(h, -f)(g, -e)(h, f)``, where
    reduction forces g != h: exactly the cyclic rotations and inverses of
    ``[g, h]`` (so the genus-1 orientable surface presentation counts as
    Z^2).  Any other relator, or any uncovered generator pair, disqualifies.
    """
    n = p.num_generators
    needed = {frozenset(pair) for pair in combinations(range(n), 2)}
    seen = set()
    for w in map(reduce, p.relators):
        if not w.letters:
            continue
        (g, e), (h, f) = w.letters[0], w.letters[-1]
        if w.letters != ((g, e), (h, -f), (g, -e), (h, f)):
            return False
        seen.add(frozenset((g, h)))
    return seen == needed


def canonical_form(w, p: Presentation) -> GroupWord:
    """Normal form of w as an element of the presented group, where known.

    Free-abelian presentations get the sorted power form
    ``g_0^{e_0} g_1^{e_1} ...``; everything else gets free reduction.  Two
    words equal in a free-abelian group therefore share one canonical form,
    which is what makes group-element-level evaluation well defined there.

    ``w`` is a :class:`GroupWord` or the letters tuple of one.  The
    presentation's memo answers a letters tuple it holds (as ``==`` does, so
    pass letters of words already built); a miss builds the word, which
    validates it, and computes the form.
    """
    letters = w.letters if isinstance(w, GroupWord) else w
    memo = p._forms
    form = memo.get(letters)
    if form is None:
        form = _normal_form(w if isinstance(w, GroupWord) else GroupWord(w), p)
        with _MEMO_LOCK:
            if len(memo) > CANONICAL_MEMO_SIZE - 2:
                memo.clear()
            # equal forms share one object, so a key built from its letters
            # is that form's own tuple
            form = memo[letters] = memo.setdefault(form.letters, form)
    return form


def _normal_form(w: GroupWord, p: Presentation) -> GroupWord:
    """:func:`canonical_form` computed, without the memo."""
    sums = exponent_sums(w, p.num_generators)  # refuses out-of-range letters
    if not p.free_abelian:
        return reduce(w)
    letters: list[Letter] = []
    for g, e in enumerate(sums):
        sign = 1 if e > 0 else -1
        letters.extend([(g, sign)] * abs(e))
    return GroupWord(tuple(letters))


# ---------------------------------------------------------------------------
# Text and JSON formats
# ---------------------------------------------------------------------------

def word_from_text(text: str, p: Presentation) -> GroupWord:
    """Parse ``"abAB"``-style text against a presentation's generator names."""
    index = {name: i for i, name in enumerate(p.generator_names)}
    letters: list[Letter] = []
    for ch in text:
        low = ch.lower()
        if low not in index:
            raise ParseError(f"unknown generator letter {ch!r}")
        letters.append((index[low], 1 if ch.islower() else -1))
    return GroupWord(tuple(letters))


def word_to_text(w: GroupWord, p: Presentation) -> str:
    chars = []
    for g, e in w.letters:
        if g >= p.num_generators:
            raise ParseError(f"word uses generator {g} outside the presentation")
        name = p.generator_names[g]
        chars.append(name if e == 1 else name.upper())
    return "".join(chars)


def presentation_to_json(p: Presentation) -> dict:
    return {
        "generators": list(p.generator_names),
        "relators": [word_to_text(r, p) for r in p.relators],
    }


def _json_strings(value, what: str) -> list:
    """A JSON list of strings; anything else is :class:`ParseError`."""
    return [json_value(s, (str,), what) for s in json_value(value, (list,), f"{what} list")]


def presentation_from_json(obj) -> Presentation:
    try:
        names = tuple(_json_strings(obj["generators"], "generator"))
        relator_texts = _json_strings(obj.get("relators", []), "relator")
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed presentation JSON: {exc}") from exc
    skeleton = Presentation(len(names), names, ())
    relators = tuple(word_from_text(t, skeleton) for t in relator_texts)
    return Presentation(len(names), names, relators)
