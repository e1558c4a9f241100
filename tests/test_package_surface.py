"""The package surface: `import unipcount` exports the query layer only, and
every exported callable refuses a bad value with an `EngineError` subclass.

A newly exported name fails the first test until it is added here on
purpose, with bad values for the second.
"""

import re
import types

import pytest

import unipcount
from unipcount import (
    DegreeMismatchError,
    EngineError,
    GroupSpec,
    InvalidPartitionError,
    ModuleDecomp,
    OrbitSpec,
    ShapeMismatchError,
    UnsupportedGroupError,
    cell_rep,
    character_table,
    coherent_module,
    count_record,
    count_unipotent,
    enumeration_record,
    make_group,
    parse_orbit,
)
from unipcount.diagrams import check_diagram
from unipcount.oracle import decompose, induced_character, orthogonality_check
from unipcount.symreps import ClassFunction

ERRORS = {
    "EngineError", "InvalidPartitionError", "DegreeMismatchError", "ShapeMismatchError",
    "UnsupportedGroupError", "OracleBoundError",
}
QUERY_LAYER = {
    "make_group", "GroupKind", "GroupSpec", "OrbitSpec", "parse_orbit",
    "count_unipotent", "cell_rep", "coherent_module", "enumeration_record", "count_record",
    "ModuleDecomp", "character_table", *ERRORS,
}
# GroupKind(...) is the enum's own lookup, and an error class is raised, not
# called with input.
EXEMPT = {"GroupKind", *ERRORS}

KINDS = ("not-whole", "negative", "non-partition")
GROUP, ORBIT = make_group("su", p=2, q=1), OrbitSpec((2, 1))
QUERIES = (count_unipotent, cell_rep, coherent_module, enumeration_record, count_record)


# A query receives its bad value through the spec that carries it: a group
# from make_group, an orbit from _replace or OrbitSpec.
def _query_cases(query):
    return (
        lambda: query(make_group("su", p=1.5, q=1.5), ORBIT),
        lambda: query(GROUP, ORBIT._replace(first=(2, -1, 2))),
        lambda: query(GROUP, OrbitSpec((1, 2))),
    )


CASES = {
    "make_group": (
        lambda: make_group("gl-r", n=2.5),
        lambda: make_group("su", p=-1, q=2),
        lambda: make_group("gl-r", n=(2, 1)),
    ),
    "GroupSpec": (
        lambda: GroupSpec("su", 3, 1.5, 1.5),
        lambda: GroupSpec("gl-r", -1),
        lambda: GroupSpec("gl-r", (2, 1)),
    ),
    "OrbitSpec": (
        lambda: OrbitSpec((2.5, 1)),
        lambda: OrbitSpec((2, -1)),
        lambda: OrbitSpec((1, 2)),
    ),
    "ModuleDecomp": (
        lambda: ModuleDecomp((2.5,)),
        lambda: ModuleDecomp((2,), {((2,),): -1}),
        lambda: ModuleDecomp((3,), {((1, 2),): 1}),
    ),
    "character_table": (
        lambda: character_table(2.5),
        lambda: character_table(-1),
        lambda: character_table((2, 1)),
    ),
    "parse_orbit": (
        lambda: parse_orbit("2.5,1"),
        lambda: parse_orbit("2,-1"),
        lambda: parse_orbit(3),
    ),
    **{query.__name__: _query_cases(query) for query in QUERIES},
}

# Arguments of the wrong type, each refused before it is read: (id, call,
# error). A query takes its group and orbit as specs only.
WRONG_TYPE = [
    *((f"{q.__name__}-tuple-orbit", lambda q=q: q(GROUP, (2, 1)), InvalidPartitionError) for q in QUERIES),
    *((f"{q.__name__}-str-group", lambda q=q: q("su", ORBIT), UnsupportedGroupError) for q in QUERIES),
    ("ModuleDecomp-int-shape", lambda: ModuleDecomp(5), ShapeMismatchError),
    ("ModuleDecomp-int-key", lambda: ModuleDecomp((2,), {5: 1}), ShapeMismatchError),
    ("ModuleDecomp.multiplicity-int-key", lambda: ModuleDecomp((2,)).multiplicity(5), ShapeMismatchError),
    ("ModuleDecomp-int-entry", lambda: ModuleDecomp((1,), [5]), ShapeMismatchError),
    ("ModuleDecomp-str-mults", lambda: ModuleDecomp((1,), "ab"), ShapeMismatchError),
    ("ModuleDecomp-int-mults", lambda: ModuleDecomp((1,), 5), ShapeMismatchError),
    ("ClassFunction-int-values", lambda: ClassFunction(2, 5), DegreeMismatchError),
    ("ClassFunction-negative-degree", lambda: ClassFunction(-1, {}), DegreeMismatchError),
    ("induced_character-int-characters", lambda: induced_character((1,), 5), DegreeMismatchError),
    ("induced_character-int-character", lambda: induced_character((1,), (5,)), DegreeMismatchError),
    ("decompose-int-character", lambda: decompose(5), DegreeMismatchError),
    ("ModuleDecomp.tensor-int-module", lambda: ModuleDecomp((2,)).tensor(5), ShapeMismatchError),
]

# Every boundary that takes whole numbers from outside, each given one bad
# value as (the entry after) a whole one: (id, call, the README table's
# error). For make_group and GroupSpec, None means the argument is absent,
# which is refused with its own message, or taken as p + q for n.
WHOLE_NUMBER_BOUNDARIES = [
    ("check_diagram", lambda x: check_diagram((2, x)), InvalidPartitionError),
    ("OrbitSpec", lambda x: OrbitSpec((2, x)), InvalidPartitionError),
    ("make_group-n", lambda x: make_group("gl-r", n=x), UnsupportedGroupError),
    ("make_group-pq", lambda x: make_group("su", p=1, q=x), UnsupportedGroupError),
    *((f"{build.__name__}-{kind}-n", lambda x, build=build, kind=kind: build(kind, x, 1, 1), UnsupportedGroupError)
      for build in (make_group, GroupSpec) for kind in ("su", "u-tilde")),
    ("character_table", character_table, InvalidPartitionError),
    ("ModuleDecomp-shape", lambda x: ModuleDecomp((2, x)), ShapeMismatchError),
    ("ModuleDecomp-multiplicity", lambda x: ModuleDecomp((2,), {((2,),): x}), ShapeMismatchError),
    ("ClassFunction", lambda x: ClassFunction(1, {(1,): x}), DegreeMismatchError),
    ("ClassFunction-degree", lambda x: ClassFunction(x, {}), DegreeMismatchError),
    ("induced_character", lambda x: induced_character((1, x), ()), DegreeMismatchError),
    ("orthogonality_check", orthogonality_check, InvalidPartitionError),
]
NOT_WHOLE = {"2.5": 2.5, "x": "x", "nan": float("nan"), "None": None, "[1]": [1]}


def test_the_package_exports_exactly_the_query_layer():
    exported = {
        name for name, value in vars(unipcount).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == QUERY_LAYER


def test_every_exported_callable_has_bad_values_or_is_exempt():
    assert all(callable(getattr(unipcount, name)) for name in QUERY_LAYER)
    assert set(CASES) == QUERY_LAYER - EXEMPT


@pytest.mark.parametrize(
    "call,error",
    [
        *(pytest.param(CASES[name][i], EngineError, id=f"{name}-{kind}")
          for name in CASES for i, kind in enumerate(KINDS)),
        *(pytest.param(call, error, id=case) for case, call, error in WRONG_TYPE),
    ],
)
def test_every_exported_callable_refuses_bad_values_with_an_engine_error(call, error):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is not EngineError


@pytest.mark.parametrize(
    "call,bad,error",
    [
        *(pytest.param(call, value, error, id=f"{name}-{value_id}")
          for name, call, error in WHOLE_NUMBER_BOUNDARIES
          for value_id, value in NOT_WHOLE.items()
          if not (value is None and name.startswith(("make_group", "GroupSpec")))),
        pytest.param(lambda x: induced_character(x, ()), 5, DegreeMismatchError,
                     id="induced_character-not-a-sequence"),
        # p + q = 2: the right degree in the wrong type is not whole either.
        pytest.param(lambda x: make_group("su", x, 1, 1), "2", UnsupportedGroupError, id="make_group-su-n-str"),
    ],
)
def test_every_whole_number_boundary_names_the_first_entry_that_is_not_whole(call, bad, error):
    with pytest.raises(error, match=re.escape(f"got {bad!r}") + "$") as caught:
        call(bad)
    assert type(caught.value) is error
