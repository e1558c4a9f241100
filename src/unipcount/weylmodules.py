"""Virtual modules over products of symmetric groups, stored as multiplicity
maps, and the coherent-continuation decompositions of the supported groups.

A shape (n_1, ..., n_d) fixes the factor degrees; zero-degree factors are
first class, carrying the empty diagram as their only label. The zero module
keeps its shape, so sums stay total on matching shapes.
"""

from functools import cache
from itertools import accumulate
from math import prod
from operator import sub
from typing import Iterable, Mapping

from .diagrams import (
    CosetSignature,
    Diagram,
    all_diagrams,
    check_diagram,
    format_diagram,
    row_profile,
)
from .errors import (
    MAX_ROWS,
    DegreeMismatchError,
    ShapeMismatchError,
    SizeBoundError,
    UnsupportedGroupError,
    _checked_cache,
    whole_numbers,
)
from .symreps import irrep_dimension

ModuleKey = tuple[Diagram, ...]


class ModuleDecomp:
    """Finitely supported multiplicity map from label tuples (one diagram per
    symmetric-group factor) to positive integers.

    Shape entries and multiplicities must be whole numbers: 2.0 coerces to
    2, and 2.5 is rejected rather than truncated. Optional named summands
    can be attached as ``parts`` metadata; they are ignored by equality.
    The constructor, from_json_obj and multiplicity check outside input
    only: the engine builds through _built and reads mults by key.
    """

    __slots__ = ("shape", "mults", "parts")

    def __init__(
        self,
        shape: Iterable[int],
        mults: Mapping[ModuleKey, int] | Iterable[tuple[ModuleKey, int]] = (),
    ) -> None:
        self.shape = whole_numbers(shape, ShapeMismatchError, "factor degrees must be whole numbers")
        if any(s < 0 for s in self.shape):
            raise ShapeMismatchError(f"factor degrees must be non-negative: {self.shape}")
        items = mults.items() if isinstance(mults, Mapping) else mults
        try:
            pairs = [(self._check_key(key), m) for key, m in items]
        except (TypeError, ValueError):  # mults, or one of its entries, is not a (key, m) pair
            raise ShapeMismatchError(f"mults must be (key, multiplicity) pairs, got {mults!r}") from None
        counts = whole_numbers(
            [m for _, m in pairs], ShapeMismatchError, "multiplicities must be whole numbers"
        )
        if min(counts, default=0) < 0:
            bad = next(m for m in counts if m < 0)
            raise ShapeMismatchError(f"multiplicities must be non-negative, got {bad}")
        clean: dict[ModuleKey, int] = {}
        for (key, _), m in zip(pairs, counts):
            if m:
                clean[key] = clean.get(key, 0) + m
        self.mults = clean
        self.parts = {}

    def _check_key(self, key: Iterable[Iterable[int]]) -> ModuleKey:
        try:
            key = tuple(map(check_diagram, key))
        except TypeError:  # only a key that is not iterable: check_diagram raises its own
            raise ShapeMismatchError(f"a key is a sequence of diagrams, got {key!r}") from None
        if tuple(map(sum, key)) != self.shape:
            raise ShapeMismatchError(f"key {key} does not match shape {self.shape}")
        return key

    def multiplicity(self, key: Iterable[Iterable[int]]) -> int:
        """Stored multiplicity of the label tuple, or 0."""
        return self.mults.get(self._check_key(key), 0)

    def dimension(self) -> int:
        """Total dimension: sum of mult times the product of factor dimensions."""
        return sum(
            m * prod(irrep_dimension(d) for d in key) for key, m in self.mults.items()
        )

    def entries(self) -> tuple[tuple[ModuleKey, int], ...]:
        """Entries with keys in decreasing lexicographic order."""
        return tuple(sorted(self.mults.items(), reverse=True))

    def __add__(self, other: "ModuleDecomp") -> "ModuleDecomp":
        if not isinstance(other, ModuleDecomp):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeMismatchError(
                f"cannot add modules of shapes {self.shape} and {other.shape}"
            )
        out = dict(self.mults)
        for key, m in other.mults.items():
            out[key] = out.get(key, 0) + m
        return _built(self.shape, out)

    def tensor(self, other: "ModuleDecomp") -> "ModuleDecomp":
        """External product: shapes concatenate, multiplicities multiply."""
        if not isinstance(other, ModuleDecomp):
            raise ShapeMismatchError(f"a module tensors only with a module, got {other!r}")
        out = {}
        for k1, m1 in self.mults.items():
            for k2, m2 in other.mults.items():
                out[k1 + k2] = m1 * m2
        return _built(self.shape + other.shape, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModuleDecomp)
            and self.shape == other.shape
            and self.mults == other.mults
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = ", ".join(
            "(" + ",".join(format_diagram(d) for d in key) + f"): {m}"
            for key, m in self.entries()
        )
        return f"ModuleDecomp(shape={self.shape}, {{{body}}})"

    def to_json_obj(self) -> dict:
        """Canonical JSON form: shape, then entries sorted by key tuple. Each
        entry's key is the module's own key tuple, which json writes as an
        array of arrays; from_json_obj reads lists or tuples alike."""
        return {
            "shape": list(self.shape),
            "mults": [{"key": key, "m": m} for key, m in self.entries()],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ModuleDecomp":
        try:  # tuple() here: a shape or key that is not iterable is of the wrong form
            return cls(tuple(obj["shape"]), [(tuple(e["key"]), e["m"]) for e in obj["mults"]])
        except (KeyError, TypeError) as exc:  # an object not of to_json_obj's form
            raise ShapeMismatchError(f"not a module object: {exc!r}") from None


def _built(shape: tuple[int, ...], mults: dict[ModuleKey, int]) -> ModuleDecomp:
    """A module the engine built itself: canonical keys that match the
    shape and positive multiplicities, so no key is checked again."""
    module = object.__new__(ModuleDecomp)
    module.shape, module.mults, module.parts = shape, mults, {}
    return module


def _degrees(pq: tuple, degrees: Iterable[int], coset: bool = False) -> tuple[int, ...]:
    """The module layer's one degree rule, which every public builder runs before it reads
    an argument. It returns pq, (p, q) or (), then the degrees or ranks, as whole_numbers
    ints. It refuses p or q below 0; with coset, degrees that are not a pair (n_h, n_0); and
    with p and q, a coset whose sum is not p + q or a degree outside 0..p+q."""
    if pq:
        p, q = pq = whole_numbers(pq, UnsupportedGroupError, "p and q must be whole numbers")
        if p < 0 or q < 0:
            raise UnsupportedGroupError(f"p and q must be non-negative, got {pq}")
    ints = whole_numbers(degrees, ShapeMismatchError, "a degree or rank must be a whole number")
    if coset and len(ints) != 2:
        raise ShapeMismatchError(f"a coset signature is a pair (n_h, n_0), got {degrees!r}")
    if pq and coset and sum(ints) != p + q:
        raise DegreeMismatchError(f"p + q = {p + q} does not match coset degree {sum(ints)}")
    for r in ints if pq else ():
        if not 0 <= r <= p + q:
            raise ShapeMismatchError(f"a block degree must lie in 0..{p + q}, got {r}")
    return pq + ints


@_checked_cache
def matchings_module(r: int) -> ModuleDecomp:
    """Permutation module of S_{2r} on perfect matchings.

    This is the induction of the trivial character from the stabilizer of a
    fixed matching; its decomposition is every partition of 2r with all rows
    even, multiplicity one (cross-checked against the matchings oracle).
    """
    (r,) = _degrees((), (r,))
    return _built(
        (2 * r,),
        {(nu,): 1 for nu in all_diagrams(2 * r) if all(p % 2 == 0 for p in nu)},
    )


@_checked_cache
def sign_induction_module(p: int, q: int) -> ModuleDecomp:
    """Sum over 0 <= k <= min(p, q) of the induction to S_{p+q} of the
    matchings module of rank k times sign on S_{p-k} times sign on S_{q-k},
    read label by label off _pieri_count of its _strip_fillings."""
    p, q = _degrees((p, q), ())
    mults = {(nu,): m for nu in all_diagrams(p + q) if (m := _pieri_count(_strip_fillings(nu), p - q))}
    return _built((p + q,), mults)


@cache
def _strip_fillings(nu: Diagram) -> tuple[tuple[tuple[int, ...], int]]:
    """nu's one-block record for _pieri_count: _profile_fillings of its row profile, once per label."""
    return (_profile_fillings(zip(*row_profile(nu))),)


def _profile_fillings(blocks: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """c_odd(t) of _pieri_count, lowest degree first, and the product of m_b + 1
    over the even-length blocks of the label whose blocks of m_b rows of one length
    are the (length, m_b) pairs of blocks, in any order: both are products over the blocks.
    c_odd has one entry more than the label has odd rows, at most MAX_ROWS: a longer one is
    refused before it is built, naming the label's number of rows, which for a cell label is
    the length of the longest orbit row it transposes."""
    blocks = iter(blocks)  # a refusal reads the rest
    c_odd, even, even_rows = [1], 1, 0
    for length, m in blocks:
        if length % 2:  # times 1 + x + ... + x^m: each coefficient is a window of m + 1 running totals
            if len(c_odd) + m > MAX_ROWS:
                rows = even_rows + len(c_odd) - 1 + m + sum(k for _, k in blocks)
                raise SizeBoundError(f"a label of {rows} rows needs a c_odd list of more than {MAX_ROWS} entries")
            totals = list(accumulate(c_odd + [0] * m, initial=0))
            c_odd = list(map(sub, totals[1:], [0] * m + totals))
        else:
            even *= m + 1
            even_rows += m
    return tuple(c_odd), even


def _pieri_count(record: Iterable[tuple[tuple[int, ...], int]], d: int) -> int:
    """Sum over the (c_odd, even) blocks of a record, each the _profile_fillings of a label
    nu, of the multiplicity of (nu,) in sign_induction_module(p, q) at d = p - q, for
    |nu| = p + q: c_odd[i] * even with i = (len(c_odd) - 1 + d)/2, or 0 when i is out of
    range.

    By the Pieri rule for vertical strips (Macdonald, Symmetric Functions
    and Hall Polynomials, I.(5.16)-(5.17)), inducing tau times sign on
    S_{p-k} times sign on S_{q-k} adds a vertical strip of size p-k and then
    one of size q-k to tau. So the multiplicity is the number of chains
    that take nu, remove a vertical strip of size q-k, then one of size p-k,
    and end on a diagram with all rows even (a constituent of the matchings
    module of rank k), summed over 0 <= k <= min(p, q).

    Closed form: a row loses at most one box to each strip and ends even,
    so each odd row loses exactly one box, to one of the two strips, and
    each even row loses none or two, one to each. A strip takes its boxes
    from the bottom rows of each run of equal rows, so the filling of a
    block of equal rows of nu is fixed by how many of its rows go to each
    strip. Blocks differ in length, an odd row loses one box and an even
    row two or none, so every such choice keeps both shapes along the chain
    diagrams: nothing links different blocks. Let O be the number of odd
    rows, I the number of them that lose their box to the strip of size
    p-k, and J the number of even rows that lose two. Then p-k = I + J and
    q-k = O - I + J, so I = (O + p - q)/2 and k = p - I - J. A block of m_b
    rows sends 0..m_b of them to a strip, so the fillings with given I and
    J number c_odd(I) c_even(J), the coefficients of x^I and x^J in the
    product of 1 + x + ... + x^{m_b} over the odd-length and over the
    even-length blocks. The condition k >= 0, that is J <= (p + q - O)/2,
    never binds: with E even rows, p + q = |nu| >= O + 2E, so every J <= E
    is allowed, and the sum of c_even(J) over J is the product of m_b + 1
    over the even-length blocks. Hence the multiplicity is c_odd(I) times
    that product, with I an integer since O = |nu| = p + q mod 2.
    """
    count = 0
    for c_odd, even in record:
        i = (len(c_odd) - 1 + d) // 2
        if 0 <= i < len(c_odd):
            count += c_odd[i] * even
    return count


@_checked_cache
def diagonal_module(r: int) -> ModuleDecomp:
    """Sum of label-pair diagonals over S_r x S_r: one copy of (a, a) for
    every label a of size r."""
    (r,) = _degrees((), (r,))
    return _built((r, r), {(lam, lam): 1 for lam in all_diagrams(r)})


def _block_signature(p: int, q: int, r: int) -> tuple[int, int] | None:
    """(p, q) of the sign induction beside a matchings factor of degree r in 0..p+q
    in a block summand, or None when r is odd or min(p, q) < r/2 (a zero block)."""
    if r % 2 or min(p, q) < r // 2:
        return None
    return p - r // 2, q - r // 2


@_checked_cache
def block_matchings_first(p: int, q: int, r: int) -> ModuleDecomp:
    """Matchings module on a degree-r first factor tensored with the sign
    inductions on the remaining degree; the zero module of shape
    (r, p+q-r) when r is odd or min(p, q) < r/2."""
    p, q, r = _degrees((p, q), (r,))
    rest = _block_signature(p, q, r)
    if rest is None:
        return _built((r, p + q - r), {})
    return matchings_module(r // 2).tensor(sign_induction_module(*rest))


@_checked_cache
def block_matchings_second(p: int, q: int, r: int) -> ModuleDecomp:
    """Mirror of block_matchings_first, with the matchings factor second and
    shape (p+q-r, r)."""
    p, q, r = _degrees((p, q), (r,))
    rest = _block_signature(p, q, r)
    if rest is None:
        return _built((p + q - r, r), {})
    return sign_induction_module(*rest).tensor(matchings_module(r // 2))


def coh_u_cover(p: int, q: int, sig: CosetSignature) -> ModuleDecomp:
    """Coherent continuation module of the square-root-of-determinant double
    cover of U(p, q) at the coset with the given signature.

    The two block summands are attached as ``parts`` metadata under the tags
    ``genuine`` and ``non_genuine``; which block is which flips with the
    parity of p + q.
    """
    p, q, n_h, n_0 = _degrees((p, q), sig, coset=True)
    first, second = block_matchings_first(p, q, n_h), block_matchings_second(p, q, n_0)
    if (p + q) % 2:
        parts = {"genuine": second, "non_genuine": first}
    else:
        parts = {"genuine": first, "non_genuine": second}
    total = first + second
    total.parts = parts
    return total


def coh_su(p: int, q: int, sig: CosetSignature) -> ModuleDecomp:
    """Coherent continuation module of SU(p, q): the two block summands,
    plus two diagonal summands exactly when p = q = n_h = n_0."""
    p, q, n_h, n_0 = _degrees((p, q), sig, coset=True)
    total = block_matchings_first(p, q, n_h) + block_matchings_second(p, q, n_0)
    if p == q == n_h == n_0:
        diag = diagonal_module(p)
        total = total + diag + diag
    return total


def coh_gl_complex(sig: CosetSignature) -> ModuleDecomp:
    """Coherent continuation module of the complex general linear group:
    the regular representation of S_{n_h} x S_{n_0}, i.e. one copy of
    (a, b, a, b) for every pair of labels."""
    n_h, n_0 = _degrees((), sig, coset=True)
    mults = {
        (a, b, a, b): 1 for a in all_diagrams(n_h) for b in all_diagrams(n_0)
    }
    return _built((n_h, n_0, n_h, n_0), mults)


def coh_sl_complex(sig: CosetSignature) -> ModuleDecomp:
    """Coherent continuation module of the complex special linear group:
    the general-linear module, plus one swapped copy (a, b, b, a) per label
    pair when n_h = n_0 (restriction is an isomorphism otherwise)."""
    n_h, n_0 = _degrees((), sig, coset=True)
    out = coh_gl_complex((n_h, n_0))
    if n_h == n_0:
        for a, b, _, _ in list(out.mults):  # coh_gl_complex is not cached: its fresh dict takes the copies
            out.mults[a, b, b, a] = out.mults.get((a, b, b, a), 0) + 1
    return out
