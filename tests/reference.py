"""Reference helpers shared by several test modules."""

from functools import cache

from unipcount.symreps import ClassFunction, character_table
from unipcount.weylmodules import _block_signature, sign_induction_multiplicity


# Reference: the irreducible character chi^label as a class function, built
# once per label. The oracle instead induces straight from the rows of
# character_table and never wraps them.
@cache
def irreducible_character(label):
    n = sum(label)
    return ClassFunction(n, dict(character_table(n)[label]))


# Reference: the per-(p, q) block multiplicity that count_unipotent read
# before it kept one record per orbit. The multiplicity of (matched, other)
# in block_matchings_first(p, q, r), without building it: the matchings
# factor holds exactly the diagrams with all rows even, once each, so this
# is sign_induction_multiplicity of the other factor, or 0.
def block_multiplicity(p, q, r, matched, other):
    rest = _block_signature(p, q, r)
    if rest is None or any(row % 2 for row in matched):
        return 0
    return sign_induction_multiplicity(other, *rest)
