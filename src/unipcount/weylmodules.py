"""Virtual modules over products of symmetric groups, stored as multiplicity
maps, and the coherent-continuation decompositions of the supported groups.

A shape (n_1, ..., n_d) fixes the factor degrees; zero-degree factors are
first class, carrying the empty diagram as their only label. The zero module
keeps its shape, so sums stay total on matching shapes.
"""

from functools import cache
from math import prod
from typing import Iterable, Mapping

from .diagrams import (
    CosetSignature,
    Diagram,
    all_diagrams,
    check_diagram,
    format_diagram,
    row_profile,
)
from .errors import DegreeMismatchError, ShapeMismatchError, UnsupportedGroupError
from .symreps import irrep_dimension

ModuleKey = tuple[Diagram, ...]


class ModuleDecomp:
    """Finitely supported multiplicity map from label tuples (one diagram per
    symmetric-group factor) to positive integers.

    Optional named summands can be attached as ``parts`` metadata; they are
    ignored by equality.
    """

    __slots__ = ("shape", "mults", "parts")

    def __init__(
        self,
        shape: Iterable[int],
        mults: Mapping[ModuleKey, int] | Iterable[tuple[ModuleKey, int]] = (),
    ) -> None:
        self.shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in self.shape):
            raise ShapeMismatchError(f"factor degrees must be non-negative: {self.shape}")
        items = mults.items() if isinstance(mults, Mapping) else mults
        clean: dict[ModuleKey, int] = {}
        for key, m in items:
            key = self._check_key(key)
            m = int(m)
            if m < 0:
                raise ShapeMismatchError(f"multiplicities must be non-negative, got {m}")
            if m:
                clean[key] = clean.get(key, 0) + m
        self.mults = clean
        self.parts = {}

    def _check_key(self, key: Iterable[Iterable[int]]) -> ModuleKey:
        key = tuple(check_diagram(d) for d in key)
        if len(key) != len(self.shape) or any(
            sum(d) != s for d, s in zip(key, self.shape)
        ):
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
        return tuple((key, self.mults[key]) for key in sorted(self.mults, reverse=True))

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
        """Canonical JSON form: shape, then entries sorted by key tuple."""
        return {
            "shape": list(self.shape),
            "mults": [
                {"key": [list(d) for d in key], "m": m} for key, m in self.entries()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ModuleDecomp":
        return cls(
            tuple(obj["shape"]),
            [
                (tuple(tuple(d) for d in entry["key"]), entry["m"])
                for entry in obj["mults"]
            ],
        )


def _built(shape: tuple[int, ...], mults: dict[ModuleKey, int]) -> ModuleDecomp:
    """A module the engine built itself: canonical keys that match the
    shape and positive multiplicities, so no key is checked again."""
    module = object.__new__(ModuleDecomp)
    module.shape, module.mults, module.parts = shape, mults, {}
    return module


@cache
def matchings_module(r: int) -> ModuleDecomp:
    """Permutation module of S_{2r} on perfect matchings.

    This is the induction of the trivial character from the stabilizer of a
    fixed matching; its decomposition is every partition of 2r with all rows
    even, multiplicity one (cross-checked against the matchings oracle).
    """
    return _built(
        (2 * r,),
        {(nu,): 1 for nu in all_diagrams(2 * r) if all(p % 2 == 0 for p in nu)},
    )


def _check_signature(p: int, q: int) -> None:
    if p < 0 or q < 0:
        raise UnsupportedGroupError(f"p and q must be non-negative, got ({p}, {q})")


@cache
def sign_induction_module(p: int, q: int) -> ModuleDecomp:
    """Sum over 0 <= k <= min(p, q) of the induction to S_{p+q} of the
    matchings module of rank k times sign on S_{p-k} times sign on S_{q-k},
    read entry by entry off sign_induction_multiplicity."""
    _check_signature(p, q)
    mults = {(nu,): m for nu in all_diagrams(p + q) if (m := sign_induction_multiplicity(nu, p, q))}
    return _built((p + q,), mults)


@cache
def _strip_fillings(nu: Diagram) -> tuple[tuple[int, ...], int]:
    """c_odd(t) of sign_induction_multiplicity, lowest degree first, and the
    product of m_b + 1 over the even-length blocks of nu."""
    profile = row_profile(nu)
    c_odd, even = [1], 1
    for length, m in zip(profile.lengths, profile.mults):
        if length % 2:
            c_odd = [sum(c_odd[max(t - m, 0) : t + 1]) for t in range(len(c_odd) + m)]
        else:
            even *= m + 1
    return tuple(c_odd), even


@cache
def sign_induction_multiplicity(nu: Diagram, p: int, q: int) -> int:
    """Multiplicity of (nu,) in sign_induction_module(p, q), without
    building the module.

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
    that product, with I an integer since O = |nu| = p + q mod 2; it is 0
    unless |nu| = p + q.
    """
    _check_signature(p, q)
    if sum(nu) != p + q:
        return 0
    c_odd, even = _strip_fillings(nu)
    i = (len(c_odd) - 1 + p - q) // 2
    return c_odd[i] * even if 0 <= i < len(c_odd) else 0


@cache
def diagonal_module(r: int) -> ModuleDecomp:
    """Sum of label-pair diagonals over S_r x S_r: one copy of (a, a) for
    every label a of size r."""
    return _built((r, r), {(lam, lam): 1 for lam in all_diagrams(r)})


def _block_signature(p: int, q: int, r: int) -> tuple[int, int] | None:
    """(p, q) of the sign induction beside a degree-r matchings factor in a
    block summand, or None when r is odd or min(p, q) < r/2 (a zero block)."""
    _check_signature(p, q)
    if r % 2 or min(p, q) < r // 2:
        return None
    return p - r // 2, q - r // 2


@cache
def block_matchings_first(p: int, q: int, r: int) -> ModuleDecomp:
    """Matchings module on a degree-r first factor tensored with the sign
    inductions on the remaining degree; the zero module of shape
    (r, p+q-r) when r is odd or min(p, q) < r/2."""
    rest = _block_signature(p, q, r)
    if rest is None:
        return ModuleDecomp((r, p + q - r))
    return matchings_module(r // 2).tensor(sign_induction_module(*rest))


@cache
def block_matchings_second(p: int, q: int, r: int) -> ModuleDecomp:
    """Mirror of block_matchings_first, with the matchings factor second and
    shape (p+q-r, r)."""
    rest = _block_signature(p, q, r)
    if rest is None:
        return ModuleDecomp((p + q - r, r))
    return sign_induction_module(*rest).tensor(matchings_module(r // 2))


@cache
def block_multiplicity(p: int, q: int, r: int, matched: Diagram, other: Diagram) -> int:
    """Multiplicity of (matched, other) in block_matchings_first(p, q, r),
    without building it: the matchings factor holds exactly the diagrams
    with all rows even, once each, so this is sign_induction_multiplicity
    of the other factor, or 0."""
    rest = _block_signature(p, q, r)
    if rest is None or any(row % 2 for row in matched):
        return 0
    return sign_induction_multiplicity(other, *rest)


def _blocks(p: int, q: int, sig: CosetSignature) -> tuple[ModuleDecomp, ModuleDecomp]:
    """The two block summands of the unitary modules at the coset."""
    n_h, n_0 = sig
    if p + q != n_h + n_0:
        raise DegreeMismatchError(
            f"p + q = {p + q} does not match coset degree {n_h + n_0}"
        )
    return block_matchings_first(p, q, n_h), block_matchings_second(p, q, n_0)


def coh_u_cover(p: int, q: int, sig: CosetSignature) -> ModuleDecomp:
    """Coherent continuation module of the square-root-of-determinant double
    cover of U(p, q) at the coset with the given signature.

    The two block summands are attached as ``parts`` metadata under the tags
    ``genuine`` and ``non_genuine``; which block is which flips with the
    parity of p + q.
    """
    first, second = _blocks(p, q, sig)
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
    first, second = _blocks(p, q, sig)
    total = first + second
    if p == q == sig[0] == sig[1]:
        diag = diagonal_module(p)
        total = total + diag + diag
    return total


def coh_gl_complex(sig: CosetSignature) -> ModuleDecomp:
    """Coherent continuation module of the complex general linear group:
    the regular representation of S_{n_h} x S_{n_0}, i.e. one copy of
    (a, b, a, b) for every pair of labels."""
    n_h, n_0 = sig
    mults = {
        (a, b, a, b): 1 for a in all_diagrams(n_h) for b in all_diagrams(n_0)
    }
    return _built((n_h, n_0, n_h, n_0), mults)


def coh_sl_complex(sig: CosetSignature) -> ModuleDecomp:
    """Coherent continuation module of the complex special linear group:
    the general-linear module, plus one swapped copy (a, b, b, a) per label
    pair when n_h = n_0 (restriction is an isomorphism otherwise)."""
    n_h, n_0 = sig
    out = coh_gl_complex(sig)
    if n_h == n_0:
        swap = _built(
            (n_h, n_0, n_h, n_0),
            {(a, b, b, a): 1 for a in all_diagrams(n_h) for b in all_diagrams(n_0)},
        )
        out = out + swap
    return out
