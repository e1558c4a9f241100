"""Reference helpers shared by several test modules."""

from functools import cache

from unipcount.symreps import ClassFunction, character_table


# Reference: the irreducible character chi^label as a class function, built
# once per label. The oracle instead induces straight from the rows of
# character_table and never wraps them.
@cache
def irreducible_character(label):
    n = sum(label)
    return ClassFunction(n, dict(character_table(n)[label]))
