"""Malformed ``FamilySpec`` and ``ExperimentSpec`` documents: every one either
constructs, builds and runs, or raises a ``GwError``."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwlab import (
    ExperimentSpec,
    FamilySpec,
    GwError,
    binary_sweep_spec,
    build,
    robustness_modulus,
)

# Values no field expects, and a few small ones that some fields accept.
WILD = [
    math.nan, math.inf, -math.inf, -1, -0.5, 0, 1, 2, 0.5, 2.5, 2**63, 10**30,
    True, False, "abc", "3", None, [], [1.0], [0.5, math.nan], {"p": 0.5},
]

FAMILY_DOCS = [
    {"family": "binary", "p": 0.75},
    {"family": "three_point", "p0": 0.2, "p2": 0.5, "p3": 0.3},
    {"family": "poisson", "lambda": 2.0},
    {"family": "poisson", "lambda": 2.0, "truncation": 30},
    {"family": "polynomial", "p": 3.5, "truncation": 30},
    {"family": "raw", "weights": [0.25, 0.0, 0.75]},
]

SWEEP_DOC = binary_sweep_spec(n_max=2, offsets=(0.0,), replications=500).to_json_dict()


@st.composite
def fuzzed(draw, base, most=3):
    """``base`` with up to ``most`` fields, or the first entry of a list field,
    set to a ``WILD`` value."""
    doc = dict(base)
    for key in draw(st.sets(st.sampled_from(sorted(base)), max_size=most)):
        value = draw(st.sampled_from(WILD))
        if isinstance(doc[key], list) and doc[key] and draw(st.booleans()):
            value = [value, *doc[key][1:]]
        doc[key] = value
    return doc


family_docs = st.sampled_from(FAMILY_DOCS).flatmap(fuzzed)


@st.composite
def sweep_docs(draw):
    doc = draw(fuzzed(SWEEP_DOC, most=2))
    if draw(st.booleans()):
        doc["center"] = draw(family_docs)
    if draw(st.booleans()):
        doc["grid"] = [draw(family_docs)]
    return doc


def _construct(make, doc):
    try:
        return make(doc)
    except GwError:
        return None


FUZZ = settings(max_examples=300, deadline=None)


class TestJsonFuzz:
    @FUZZ
    @given(doc=family_docs)
    # An explicit truncation was not held to MAX_DERIVED_TRUNCATION.
    @example(doc={"family": "poisson", "lambda": 2.0, "truncation": 10**30})
    def test_family_documents_build_or_raise_a_domain_error(self, doc):
        spec = _construct(FamilySpec.from_json_dict, doc)
        if spec is not None:
            _construct(build, spec)

    @FUZZ
    @given(doc=sweep_docs())
    @example(doc=dict(SWEEP_DOC, grid=[{"family": "polynomial", "p": 3.5, "truncation": 10**30}]))
    def test_sweep_documents_run_or_raise_a_domain_error(self, doc):
        spec = _construct(ExperimentSpec.from_json_dict, doc)
        if spec is None:
            return
        for member in (spec.center, *spec.grid):
            _construct(build, member)
        # Only work of desk size is run: the limits themselves are tested elsewhere.
        if spec.replications <= 2000 and max(spec.n_range) <= 3:
            _construct(robustness_modulus, spec)
