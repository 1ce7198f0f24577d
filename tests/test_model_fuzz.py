"""Mutated model documents are loaded or refused in one short line.

A strategy takes the JSON document of a catalog model and mutates it a few
times: it deletes a key or a list entry, swaps a value for one of another
JSON type, or puts in a 5000-digit integer, a 5000-character string or a
number in exponent notation.  Each document goes through ``model_from_json``,
``validate`` and ``build``.  The result must be a ``LieModel``, or an
``AkhError`` whose message is one line of at most 200 characters: a refusal
never echoes a long input whole, and no other exception escapes.

A second strategy changes one field of a catalog ``LieModel`` through
``_replace``: the whole field, or one entry of it at any depth (a bracket
entry, an index or constant in it, a row of J or of the coframe, one
matrix entry), is deleted or swapped for a value of another type.  The
result is checked the same way, so construction itself refuses what
``model_from_json`` never sees.

The seeds and the numbers of examples are fixed, so the test is the same on
every run and stays within a few seconds.
"""

import functools
import operator

from hypothesis import given, seed, settings, strategies as st

from akh.exact import AkhError, GaussScalar
from akh.forms import build
from akh.model import CATALOG_NAMES, LieModel, catalog, model_from_json, model_to_json, validate

LONG_VALUES = ("x" * 5000, "9" * 5000, "1/" + "x" * 5000, "-" * 5000,
               10 ** 5000 + 1, -(10 ** 5000), 10 ** 4000 + 1)
OTHER_TYPES = (None, True, False, 0, -1, 2, 1.5, "", "1", "i", "1e5", "1E400", "2.5e-3",
               [], [1], {}, {"i": 1})
FIELD_VALUES = OTHER_TYPES + LONG_VALUES + (0.0, 4.0, (), (0, 1), (0, 1, 2, -1),
                                            GaussScalar(0, 1), 10 ** 4000)


def _paths(value, path=()):
    """The path of every value inside a JSON document, the root excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _swap_type(value):
    """The same datum as a JSON value of another type: a list as an object,
    an object as the list of its values, a number as its string and back,
    and anything too long to convert wrapped in a list."""
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, str):
        short_int = value.lstrip("-").isdigit() and len(value) < 1000
        return int(value) if short_int else [value]
    if isinstance(value, int) and abs(value) >= 10 ** 1000:
        return [value]
    return str(value)


@st.composite
def mutated_documents(draw):
    data = model_to_json(catalog(draw(st.sampled_from(CATALOG_NAMES))))
    for _ in range(draw(st.integers(1, 3))):
        # a top-level field half the time, so that dim, format and name are
        # not drowned out by the many entries of brackets and J
        paths = list(_paths(data))
        path = draw(st.sampled_from([p for p in paths if len(p) == 1]) | st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, path[:-1], data)
        kind = draw(st.sampled_from(("delete", "swap", "long", "other")))
        if kind == "delete":
            del parent[path[-1]]
        elif kind == "swap":
            parent[path[-1]] = _swap_type(parent[path[-1]])
        else:
            parent[path[-1]] = draw(st.sampled_from(LONG_VALUES if kind == "long"
                                                    else OTHER_TYPES))
        if not list(_paths(data)):
            break
    return data


def assert_built_or_refused_in_one_short_line(make):
    """``make()`` gives a model that validates and builds, or raises an
    AkhError of one line of at most 200 characters, and nothing else."""
    try:
        model = make()
        validate(model)
        build(model)
    except AkhError as exc:
        assert "\n" not in str(exc) and len(str(exc)) <= 200, str(exc)[:300]
    else:
        assert isinstance(model, LieModel)


@seed(180901414)
@given(mutated_documents())
@settings(max_examples=400, deadline=None, database=None)
def test_mutated_model_loads_or_is_refused_in_one_short_line(data):
    assert_built_or_refused_in_one_short_line(lambda: model_from_json(data))


def _tuple_paths(value, path=()):
    """The path of every entry inside nested tuples, the root excluded."""
    if isinstance(value, tuple):
        for i, child in enumerate(value):
            yield path + (i,)
            yield from _tuple_paths(child, path + (i,))


def _replaced(value, path, new, delete):
    """``value`` with the entry at ``path`` swapped for ``new``, or deleted."""
    if not path:
        return new
    items = list(value)
    if len(path) > 1:
        items[path[0]] = _replaced(items[path[0]], path[1:], new, delete)
    elif delete:
        del items[path[0]]
    else:
        items[path[0]] = new
    return tuple(items)


@st.composite
def mutated_fields(draw):
    model = catalog(draw(st.sampled_from(CATALOG_NAMES)))
    field = draw(st.sampled_from(LieModel._fields))
    value = getattr(model, field)
    path = draw(st.sampled_from([()] + list(_tuple_paths(value))))
    new = draw(st.sampled_from(FIELD_VALUES))
    return model, {field: _replaced(value, path, new, bool(path) and draw(st.booleans()))}


@seed(180901415)
@given(mutated_fields())
@settings(max_examples=400, deadline=None, database=None)
def test_mutated_lie_model_is_built_or_refused_in_one_short_line(case):
    model, change = case
    assert_built_or_refused_in_one_short_line(lambda: model._replace(**change))
