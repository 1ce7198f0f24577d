"""Mutated form documents are read or refused in one short line.

A strategy takes the ``form_to_json`` document of a form on a catalog
model (the fundamental form plus the volume form plus d of every
generator) and mutates it a few times: it deletes an entry, swaps a value
for one of another JSON type, puts in a 5000-character string or a
5000-digit integer, or replaces a block key or a monomial key.  Each
document goes through ``form_from_json``.  The result must be a ``Form``,
or an ``AkhError`` whose message is one line of at most 200 characters: a
refusal never echoes a long input whole, and no other exception escapes.

The seed and the number of examples are fixed, so the test is the same on
every run and stays within a few seconds.
"""

import copy
import functools
import operator

from hypothesis import given, seed, settings, strategies as st

from akh.exact import AkhError
from akh.forms import Form, build, form_from_json, form_to_json
from akh.model import CATALOG_NAMES, catalog
from test_model_fuzz import _paths, _swap_type

LONG_VALUES = ("x" * 5000, "9" * 5000, "a" + "9" * 5000, "a1^" * 2000, 10 ** 5000 + 1)
OTHER_VALUES = (None, True, 0, -1, 2, 1.5, "", "1", "i", "1e5", "a0", "a1~~", "a1^a1",
                "1,", "9,9", "-1,2", [], [1], {}, {"a1": "1"})
HASHABLE_VALUES = tuple(v for v in OTHER_VALUES if not isinstance(v, (list, dict)))


@functools.lru_cache(maxsize=None)
def _document_source(name):
    alg = build(catalog(name))
    return functools.reduce(Form.__add__, (alg.generator_form(g).d() for g in range(2 * alg.m)),
                            alg.fundamental_form + alg.volume_form)


@st.composite
def mutated_documents(draw):
    name = draw(st.sampled_from(CATALOG_NAMES))
    data = form_to_json(_document_source(name))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(data))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, path[:-1], data)
        kind = draw(st.sampled_from(("delete", "swap", "long", "other", "rekey")))
        if kind == "delete":
            del parent[path[-1]]
        elif kind == "swap":
            parent[path[-1]] = _swap_type(parent[path[-1]])
        elif kind == "rekey" and isinstance(parent, dict):
            key = draw(st.sampled_from(LONG_VALUES + HASHABLE_VALUES))
            parent[key] = parent.pop(path[-1])
        else:
            # a copy, as a later mutation may edit the value in place
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(
                LONG_VALUES if kind == "long" else OTHER_VALUES)))
    return name, data


def read_or_refuse(name, data):
    """The form read from data, or the message of the AkhError that refused it."""
    try:
        return form_from_json(build(catalog(name)), data)
    except AkhError as exc:
        return str(exc)


@seed(180901414)
@given(mutated_documents())
@settings(max_examples=400, deadline=None, database=None)
def test_mutated_form_is_read_or_refused_in_one_short_line(case):
    result = read_or_refuse(*case)
    if not isinstance(result, Form):
        assert "\n" not in result and len(result) <= 200, result[:300]
