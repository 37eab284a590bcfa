import pytest
from hypothesis import settings

from tdbnet.exprs import Const, Op, Var
from tdbnet.net import InputArc, Net, OutputArc, Place, Transition
from tdbnet.persistence import Atom, Column, Query, Relation, Schema
from tdbnet.values import INT, TEXT, product

# ``--hypothesis-profile=ci`` runs the Hypothesis tests that leave their
# example count to the profile (the generated-net differential, the
# alpha-memory copy counts and the one-arc edge cases
# (test_one_arc_edge_cases_equal_the_oracle) in test_scheduler_oracle.py, the
# store lookup property and the generated queries over int, text and bool
# columns against a nested-loop evaluation in test_persistence.py, and the
# trace decoder and writer differentials and the canonical_json property in
# test_formats.py) ten times deeper than the default 100.
settings.register_profile("ci", max_examples=1000)


@pytest.fixture
def timer_net():
    """ch2 --Timer[200,200]--> ch3, no database behind it."""
    return Net(
        places=(Place("ch2", TEXT), Place("ch3", TEXT)),
        transitions=(
            Transition(
                "Timer",
                inputs=(InputArc("ch2", Var("m")),),
                delay=(200, 200),
                outputs=(OutputArc("ch3", Var("m")),),
            ),
        ),
        schema=Schema(()),
    )


@pytest.fixture
def trip_net():
    """A view over Endpoints rows feeding a transition guarded by nexc > 5."""
    endpoints = Relation(
        "Endpoints", (Column("epid", TEXT), Column("nexc", INT)), ("epid",)
    )
    q = Query(
        "q_endpoints",
        atoms=(Atom("Endpoints", (Var("epid"), Var("nexc"))),),
        output=("epid", "nexc"),
    )
    return Net(
        places=(
            Place("v_endpoints", product(TEXT, INT), kind="view", query="q_endpoints"),
            Place("tripped", TEXT),
        ),
        transitions=(
            Transition(
                "trip",
                inputs=(InputArc("v_endpoints", (Var("epid"), Var("nexc"))),),
                guard=Op(">", (Var("nexc"), Const(5))),
                outputs=(OutputArc("tripped", Var("epid")),),
            ),
        ),
        schema=Schema((endpoints,)),
        queries=(q,),
    )
