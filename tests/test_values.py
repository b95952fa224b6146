"""Value semantics of the library's record types, and what importing it loads.

Plain records are named tuples; the types whose constructor checks or
derives something are plain classes that refuse assignment, and their one
base, ``graphs._Frozen``, derives equality, the hash and the repr from the
fields each class names as compared.  Either way, equality and hashing read
exactly the compared fields, values survive pickling (the ``--jobs`` pool
sends boards and returns classifications), and the repr shows the fields as
the constructor takes them.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from typing import NamedTuple

import pytest

from wordrep.boards import Axis, Board, Domino, EmbeddedGraph, Symmetry
from wordrep.catalog import (
    ClosurePolicy,
    ForbiddenHit,
    ForbiddenMember,
    ForbiddenSet,
    minimal_graphs,
)
from wordrep.graphs import Colouring, Graph, _Frozen, _prechecked
from wordrep.orientations import Orientation, ShortcutWitness
from wordrep.verify import Classification, SweepReport, Violation

EDGE = Graph(2, ((0, 1),))
PATH = Graph(3, ((0, 1), (1, 2)))
DOMINO = Domino(0, 0, Axis.H)
T1, T2 = minimal_graphs()[:2]


class Case(NamedTuple):
    cls: type
    args: dict  # constructor arguments, by field name
    changed: dict  # a compared field -> another value of it
    ignored: dict = {}  # a field equality ignores -> another value of it
    frozen: bool = True
    hashable: bool = True


CASES = {
    "Domino": Case(
        Domino,
        dict(row=0, col=1, axis=Axis.H),
        dict(row=1, col=0, axis=Axis.V),
    ),
    "Colouring": Case(Colouring, dict(colours=(1, 2, 1)), dict(colours=(1, 2, 3))),
    "ForbiddenHit": Case(
        ForbiddenHit,
        dict(name="T1", mapping=(0, 1), via_embedded=True),
        dict(name="T2", mapping=(1, 0), via_embedded=False),
    ),
    "ShortcutWitness": Case(
        ShortcutWitness,
        dict(path=(0, 1, 2, 3), missing=(1, 3)),
        dict(path=(0, 2, 1, 3), missing=(0, 2)),
    ),
    "Classification": Case(
        Classification,
        dict(
            board="cells 1x1",
            triangulation="/",
            three_colourable=True,
            word_representable="yes",
            forbidden_hit=None,
            embedded_hit=None,
            certificate={"colouring": [1, 2, 3, 1]},
        ),
        dict(
            board="cells 1x2",
            triangulation="\\",
            three_colourable=False,
            word_representable="no",
            forbidden_hit="T1",
            embedded_hit="T1",
            certificate={"colouring": [1, 3, 2, 1]},
        ),
        hashable=False,  # the certificate is a dict
    ),
    "Violation": Case(
        Violation,
        dict(board="b", triangulation="t", kind="equivalence", detail="d"),
        dict(board="c", triangulation="u", kind="domino-flip", detail="e"),
    ),
    "Graph": Case(
        Graph,
        dict(n=2, edges=((0, 1),)),
        dict(n=3, edges=()),
        ignored=dict(adj=(0, 0), matrix=0),
    ),
    "Board": Case(
        Board,
        dict(cell_rows=2, cell_cols=3, dominoes=(DOMINO,), exploratory=False),
        dict(cell_rows=3, cell_cols=2, dominoes=(), exploratory=True),
    ),
    "EmbeddedGraph": Case(
        EmbeddedGraph,
        dict(graph=EDGE, coords=((0, 0), (0, 1))),
        dict(graph=Graph(2, ()), coords=((0, 0), (1, 0))),
    ),
    "Orientation": Case(
        Orientation,
        dict(graph=PATH, out=(2, 4, 0)),
        dict(graph=Graph(3, ((0, 1), (0, 2), (1, 2))), out=(6, 4, 0)),
    ),
    "ForbiddenMember": Case(
        ForbiddenMember,
        dict(name="T1", base_name="T1", symmetry=Symmetry.IDENTITY, embedded=T1.embedded),
        dict(name="T1@rot90", base_name="T2", symmetry=Symmetry.ROT90, embedded=T2.embedded),
        ignored=dict(hub=0, rim_length=3),
    ),
    "ForbiddenSet": Case(
        ForbiddenSet,
        dict(policy=ClosurePolicy.EXTENDED, members=(T1, T2)),
        dict(policy=ClosurePolicy.LITERAL, members=(T2, T1)),
        ignored=dict(_tables={((0, 0),): ()}),
    ),
    "SweepReport": Case(
        SweepReport,
        dict(
            policy="extended",
            boards_examined=1,
            triangulations_examined=4,
            violations=[Violation("b", "t", "equivalence", "d")],
            lemma_mismatches=[],
            budget_exceeded=0,
            embedded_hits=2,
            general_only_hits=1,
            board_counts={"cells 1x2": 4},
            elapsed_seconds=0.5,
        ),
        dict(
            policy="literal",
            boards_examined=2,
            triangulations_examined=5,
            violations=[],
            lemma_mismatches=[Violation("b", "t", "forbidden-set", "d")],
            budget_exceeded=1,
            embedded_hits=3,
            general_only_hits=0,
            board_counts={"cells 1x2": 5},
            elapsed_seconds=0.25,
        ),
        frozen=False,
        hashable=False,
    ),
}


def make(case: Case) -> object:
    return case.cls(**case.args)


def replaced(value: object, **changes: object) -> object:
    """``value`` with some fields changed, past any check of the constructor."""
    if isinstance(value, tuple):
        return value._replace(**changes)
    return _prechecked(type(value), **{**vars(value), **changes})


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
class TestValueSemantics:
    def test_equal_values_are_equal_and_hash_alike(self, case):
        a, b = make(case), make(case)
        assert a is not b
        assert a == b and not a != b
        if case.hashable:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_a_compared_field_makes_values_unequal(self, case):
        assert set(case.changed) == set(case.args)  # every field is compared
        a = make(case)
        for name, value in case.changed.items():
            other = replaced(a, **{name: value})
            assert a != other and not a == other, name

    def test_fields_not_compared_are_ignored(self, case):
        a = make(case)
        for name, value in case.ignored.items():
            assert getattr(a, name) != value
            other = replaced(a, **{name: value})
            assert a == other, name
            assert hash(a) == hash(other), name

    def test_frozen_types_refuse_assignment(self, case):
        a = make(case)
        for name in (*case.args, "extra"):
            if case.frozen:
                with pytest.raises(AttributeError):
                    setattr(a, name, None)
                if name in case.args:
                    with pytest.raises(AttributeError):
                        delattr(a, name)
            else:
                setattr(a, name, None)
                assert getattr(a, name) is None
        if case.frozen:
            assert a == make(case)

    def test_pickle_round_trips(self, case):
        a = make(case)
        b = pickle.loads(pickle.dumps(a))
        assert type(b) is case.cls
        assert b == a
        assert repr(b) == repr(a)

    def test_repr_shows_the_fields(self, case):
        assert repr(make(case)) == REPRS[case.cls.__name__]


# The reprs as the field-generated ones printed them.  A member's repr shows
# its derived hub and rim length; a set's leaves out its placement tables.
REPRS = {
    "Domino": "Domino(row=0, col=1, axis=<Axis.H: 'H'>)",
    "Graph": "Graph(n=2, edges=((0, 1),))",
    "Board": (
        "Board(cell_rows=2, cell_cols=3, dominoes=(Domino(row=0, col=0, axis=<Axis.H: 'H'>),), "
        "exploratory=False)"
    ),
    "Colouring": "Colouring(colours=(1, 2, 1))",
    "EmbeddedGraph": "EmbeddedGraph(graph=Graph(n=2, edges=((0, 1),)), coords=((0, 0), (0, 1)))",
    "Orientation": "Orientation(graph=Graph(n=3, edges=((0, 1), (1, 2))), out=(2, 4, 0))",
    "ShortcutWitness": "ShortcutWitness(path=(0, 1, 2, 3), missing=(1, 3))",
    "ForbiddenHit": "ForbiddenHit(name='T1', mapping=(0, 1), via_embedded=True)",
    "Classification": (
        "Classification(board='cells 1x1', triangulation='/', three_colourable=True, "
        "word_representable='yes', forbidden_hit=None, embedded_hit=None, "
        "certificate={'colouring': [1, 2, 3, 1]})"
    ),
    "Violation": "Violation(board='b', triangulation='t', kind='equivalence', detail='d')",
    "SweepReport": (
        "SweepReport(policy='extended', boards_examined=1, triangulations_examined=4, "
        "violations=[Violation(board='b', triangulation='t', kind='equivalence', detail='d')], "
        "lemma_mismatches=[], budget_exceeded=0, embedded_hits=2, general_only_hits=1, "
        "board_counts={'cells 1x2': 4}, elapsed_seconds=0.5)"
    ),
    "ForbiddenMember": (
        "ForbiddenMember(name='T1', base_name='T1', symmetry=<Symmetry.IDENTITY: 'identity'>, "
        f"embedded={T1.embedded!r}, hub=4, rim_length=5)"
    ),
    "ForbiddenSet": (
        f"ForbiddenSet(policy=<ClosurePolicy.EXTENDED: 'extended'>, members=({T1!r}, {T2!r}))"
    ),
}


def test_start_up_imports_no_record_machinery():
    # Importing the CLI and building the catalog is what the benchmark's
    # set-up runs.  Pool workers are forked, so they inherit these modules.
    # The modules that only some commands call are imported by those commands.
    unwanted = {"dataclasses", "inspect", "hashlib",
                "wordrep.verify", "wordrep.orientations", "wordrep.words", "wordrep.dot"}
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import wordrep.cli\n"
        "from wordrep.catalog import ClosurePolicy, forbidden_set\n"
        "forbidden_set(ClosurePolicy.EXTENDED)\n"
        f"print(sorted({unwanted!r} & (set(sys.modules) - before)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_values_of_different_types_are_unequal(case):
    a = make(case)
    for other in CASES.values():
        if other is not case:
            assert a != make(other) and not a == make(other), other.cls.__name__
    assert a != object() and not a == object()
    assert a.__eq__(object()) is NotImplemented


def test_a_frozen_type_must_name_its_compared_fields():
    with pytest.raises(TypeError, match="names no compared field"):

        class Nameless(_Frozen):
            pass
