"""Reference helpers shared by several test modules."""

from functools import cache
from math import prod

from unipcount.diagrams import all_diagrams, row_profile
from unipcount.symreps import ClassFunction, character_table
from unipcount.weylmodules import sign_induction_module


def chi(lam, mu, table=None):
    """chi^lam(mu): the value at (label, class) of the table, by default
    character_table(|lam|). Tests read the table only through here, so none
    depends on its layout."""
    n = sum(lam)
    return (table or character_table(n))[lam][all_diagrams(n).index(mu)]


# Reference: the irreducible character chi^label as a class function, built
# once per label. The oracle instead induces straight from the rows of
# character_table and never wraps them.
@cache
def irreducible_character(label):
    n = sum(label)
    return ClassFunction(n, {mu: chi(label, mu) for mu in all_diagrams(n)})


# Reference: a label as symreps._build_table holds it, the bitmask of its
# bead set with n beads, bead i at label[i] + n - 1 - i; n must be at least
# the label's number of rows. label_of reads a bead set back.
def bead_set(label, n):
    return sum(1 << (p + n - 1 - i) for i, p in enumerate(label + (0,) * (n - len(label))))


def label_of(beads, n):
    places = [b for b in range(beads.bit_length() - 1, -1, -1) if beads >> b & 1]
    if len(places) != n:  # raised, not asserted, so that python -O still checks it
        raise AssertionError(f"bead set {beads:#b} has {len(places)} beads, not {n}")
    return tuple(p for p in (b - (n - 1 - i) for i, b in enumerate(places)) if p)


# Reference: the entry of (nu,) in sign_induction_module(p, q), or 0, also
# for a label of another size, which the module does not hold.
def sign_induction_entry(nu, p, q):
    return sign_induction_module(p, q).mults.get((nu,), 0)


# Reference: ModuleDecomp.to_json_obj in list form, as the engine wrote it
# before its entries shared the module's key tuples: every key copied into a
# list of lists. json writes a tuple and a list alike, so the bytes match.
def module_json_obj(module):
    return {
        "shape": list(module.shape),
        "mults": [{"key": list(map(list, key)), "m": m} for key, m in module.entries()],
    }


# Reference: the per-(p, q) block multiplicity that count_unipotent read
# before it kept one record per orbit. The multiplicity of (matched, other)
# in block_matchings_first(p, q, r), without building that block: the
# matchings factor holds exactly the diagrams with all rows even, once each,
# so this is the sign-induction entry of the other factor at (p - r/2,
# q - r/2), or 0. The block is zero when r is odd or min(p, q) < r/2.
def block_multiplicity(p, q, r, matched, other):
    if r % 2 or min(p, q) < r // 2 or any(row % 2 for row in matched):
        return 0
    return sign_induction_entry(other, p - r // 2, q - r // 2)


# Reference: the parity split as the engine made it before parity_halves
# filed the row profile: the even-length rows and the odd-length rows of d.
def even_odd_split(d):
    return tuple(p for p in d if p % 2 == 0), tuple(p for p in d if p % 2 == 1)


# Reference: the diagram whose rows are those of i and of j together.
def row_union(i, j):
    return tuple(sorted(i + j, reverse=True))


# Reference: parity_halves read off the split: the lengths and the mults of
# each half's row profile, as lists, and whether each half has a row length
# of odd multiplicity.
def parity_halves(d):
    profiles = tuple(map(row_profile, even_odd_split(d)))
    return (
        tuple(list(profile.lengths) for profile in profiles),
        tuple(list(profile.mults) for profile in profiles),
        [any(m % 2 for m in profile.mults) for profile in profiles],
    )


# Reference: transpose as it was defined before it read the row profile,
# one box count per column, O(rows x columns).
def transpose(d):
    if not d:
        return ()
    return tuple(sum(1 for p in d if p > i) for i in range(d[0]))


# Reference: the one block of a _strip_fillings record as it convolved before
# it read running totals, one slice sum per coefficient, quadratic in the
# odd-row multiplicities.
def strip_fillings(nu):
    c_odd, even = [1], 1
    for length, m in zip(*row_profile(nu)):
        if length % 2:
            c_odd = [sum(c_odd[max(t - m, 0) : t + 1]) for t in range(len(c_odd) + m)]
        else:
            even *= m + 1
    return tuple(c_odd), even


# Reference: the fields of unipotent._orbit_record as it built them before
# it read them off the row profile: the transposed even and odd parts, and a
# block for each label with all rows even.
def orbit_record(orbit):
    a, b = map(transpose, even_odd_split(orbit))
    blocks = tuple(
        strip_fillings(other)
        for matched, other in ((a, b), (b, a))
        if all(row % 2 == 0 for row in matched)
    )
    return ((a, b), blocks)


# Reference: the fields the orbit record kept before real-kind counts read
# the row profile and count_record read coset_signature: prod(m + 1), e, and
# the sizes of the even and the odd rows.
def real_fields(orbit):
    mults = row_profile(orbit).mults
    return (
        prod(m + 1 for m in mults),
        all(m % 2 == 0 for m in mults),
        sum(row for row in orbit if row % 2 == 0),
        sum(row for row in orbit if row % 2),
    )


# Reference: the `enumerate` table line of one row of the JSON record, as the
# table was rendered from the record before it streamed its rows: the index,
# the block sizes, the block tags, and the sign of a signed row.
def enumerate_line(row):
    sizes = "[" + ",".join(str(size) for size, _ in row["blocks"]) + "]"
    line = f"{row['index']}  {sizes}  {','.join(tag for _, tag in row['blocks'])}"
    return f"{line}  {row['sign']}" if row.get("sign") else line


# Reference: the blocks of one enumeration row, as enumeration_record built
# them before the rows shared a table of [length, tag] pairs: for each row
# length, mult - signs fresh trivial blocks, then signs fresh sign blocks.
def enumeration_blocks(orbit, a):
    blocks = []
    for length, mult, signs in zip(*row_profile(orbit), a):
        blocks.extend([length, "trivial"] for _ in range(mult - signs))
        blocks.extend([length, "sign"] for _ in range(signs))
    return blocks
