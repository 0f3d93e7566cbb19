"""Malformed ``FamilySpec`` and ``ExperimentSpec`` documents: every one either
constructs, builds and runs, or raises a ``GwError``.  Malformed numeric CLI
flags: every command either exits 0 or exits 1 with one error line."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwlab import (
    ExperimentSpec,
    FamilySpec,
    GwError,
    binary_sweep_spec,
    build,
    errors,
    robustness_modulus,
)
from gwlab.cli import main

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
    # A huge lambda under a huge budget started the Poisson cutoff past the cap.
    @example(doc=dict(SWEEP_DOC, grid=[{"family": "poisson", "lambda": 10**30}], budget=10**30))
    # A polynomial cutoff derived at budget 0 ended in a bare ZeroDivisionError.
    @example(doc=dict(SWEEP_DOC, grid=[{"family": "polynomial", "p": 3.5}], budget=0))
    def test_sweep_documents_run_or_raise_a_domain_error(self, doc):
        spec = _construct(ExperimentSpec.from_json_dict, doc)
        if spec is None:
            return
        for member in (spec.center, *spec.grid):
            _construct(build, member)
        # Only work of desk size is run: the limits themselves are tested elsewhere.
        if spec.replications <= 2000 and max(spec.n_range) <= 3:
            _construct(robustness_modulus, spec)


# Flag values no flag expects, and a few that some accept.
CLI_WILD = ["nan", "inf", "-inf", "-1", "-0.5", "0", "1", "2.5", str(2**63), "1e30", "abc", ""]

# Each command at a tiny horizon, with the numeric flags it reads.
CLI_BASES = [
    (["build-law", "--family", "poisson", "--lam", "2", "--truncation", "10"],
     ["--lam", "--truncation", "--budget"]),
    (["build-law", "--family", "binary", "--p", "0.75"], ["--p", "--budget"]),
    (["law", "--family", "binary", "--p", "0.75", "--n", "2"], ["--p", "--n", "--z0", "--budget"]),
    (["estimator-law", "--family", "poisson", "--lam", "2", "--truncation", "8", "--n", "2"],
     ["--lam", "--truncation", "--n", "--z0", "--budget"]),
    (["simulate", "--family", "binary", "--p", "0.75", "--n-max", "2", "--replications", "200",
      "--jobs", "1"], ["--p", "--n-max", "--z0", "--replications", "--cap", "--budget"]),
    (["simulate", "--family", "poisson", "--lam", "2", "--truncation", "8", "--n-max", "2",
      "--replications", "200", "--jobs", "1"],
     ["--lam", "--truncation", "--n-max", "--z0", "--replications", "--cap"]),
    (["build-law", "--family", "polynomial", "--p", "3", "--budget", "0.01"], ["--p", "--budget"]),
]


@st.composite
def cli_argvs(draw):
    """A command with up to three of its numeric flags set again to a ``CLI_WILD``
    value.  The later setting wins; ``--flag=value`` lets a value begin with ``-``."""
    base, flags = draw(st.sampled_from(CLI_BASES))
    chosen = draw(st.lists(st.sampled_from(flags), unique=True, max_size=3))
    return [*base, "--no-timestamp", *(f"{f}={draw(st.sampled_from(CLI_WILD))}" for f in chosen)]


class TestCliFuzz:
    @FUZZ
    @given(argv=cli_argvs())
    # A value that did not parse was a usage error: exit 2 and two lines.
    @example(argv=["law", "--family", "binary", "--p", "0.75", "--n=abc"])
    @example(argv=["law", "--family", "binary", "--p", "0.75", "--n", "2", "--z0=2.5"])
    # 2**63 replications ended in a MemoryError while listing the batches.
    @example(argv=[*CLI_BASES[4][0], f"--replications={2**63}"])
    # A law that never grows reached no cost cap, so 2**63 exact steps never ended.
    @example(argv=[*CLI_BASES[2][0], "--p=0", f"--n={2**63}"])
    # A polynomial cutoff derived at budget 0 ended in a ZeroDivisionError traceback.
    @example(argv=[*CLI_BASES[6][0], "--budget=0"])
    def test_numeric_flags_exit_zero_or_one_error_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        if code != 0:
            assert code == 1 and out.getvalue() == ""
            (line,) = err.getvalue().splitlines()
            assert issubclass(getattr(errors, json.loads(line)["error"]), GwError)
