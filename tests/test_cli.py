"""End-to-end command-line behavior: formats, determinism, exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gwlab import (
    FamilySpec, InvalidParameter, binary_sweep_spec, build, contamination_sweep_spec,
)
from gwlab.cli import _emit, main

GW = [sys.executable, "-m", "gwlab.cli"]
DATA = Path(__file__).parent / "data"


def run(args):
    return subprocess.run(GW + list(args), capture_output=True, text=True)


# Run in a fresh interpreter: import the CLI, list the heavy top-level
# modules it loaded, then run two pinned commands in the same process.
COLD_START = """
import contextlib, io, json, sys
import gwlab.cli

def loaded():
    return sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "multiprocessing"})

print(json.dumps(loaded()))
for argv in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert gwlab.cli.main(json.loads(argv)) == 0
    print(json.dumps(out.getvalue()))
print(json.dumps(loaded()))
"""


def build_law_file(tmp_path, name, *args):
    path = tmp_path / name
    out = run(["build-law", *args, "--format", "json", "--output", str(path)])
    assert out.returncode == 0, out.stderr
    return path


class TestBasicCommands:
    def test_extinction_prints_fixed_width_value(self):
        out = run(["extinction", "--family", "binary", "--p", "0.75"])
        assert out.returncode == 0
        assert out.stdout == "0.333333333333\n"

    def test_law_json_document(self):
        out = run(
            ["law", "--family", "binary", "--p", "0.75", "--n", "2",
             "--format", "json", "--no-timestamp"]
        )
        doc = json.loads(out.stdout)
        assert doc["schema"] == "gw-generation-1"
        weights = {row["point"]: row["weight"] for row in doc["rows"]}
        assert weights["0"] == pytest.approx(0.296875, abs=1e-15)

    def test_estimator_law_conditioned_csv(self):
        out = run(
            ["estimator-law", "--family", "binary", "--p", "0.75", "--n", "2",
             "--conditioned", "--no-timestamp"]
        )
        lines = [l for l in out.stdout.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "ratio,weight"
        table = {ratio: float(w) for ratio, w in (l.split(",") for l in lines[1:])}
        assert table == {
            "0": pytest.approx(0.0625),
            "1": pytest.approx(0.375),
            "2": pytest.approx(0.5625),
        }

    def test_csv_header_is_versioned(self):
        out = run(["law", "--family", "binary", "--p", "0.75", "--n", "1",
                   "--no-timestamp"])
        assert out.stdout.startswith("# gw-csv-1 generation\n")

    def test_timestamp_present_unless_disabled(self):
        with_ts = run(["law", "--family", "binary", "--p", "0.75", "--n", "1"])
        without = run(["law", "--family", "binary", "--p", "0.75", "--n", "1",
                       "--no-timestamp"])
        assert "# timestamp" in with_ts.stdout
        assert "# timestamp" not in without.stdout


class TestMetricCommand:
    def test_identical_files_give_zero(self, tmp_path):
        a = build_law_file(tmp_path, "a.json", "--family", "binary", "--p", "0.75")
        b = build_law_file(tmp_path, "b.json", "--family", "binary", "--p", "0.75")
        out = run(["metric", "--kind", "prohorov", str(a), str(b)])
        assert out.returncode == 0
        assert out.stdout == "0.000000000000\n"

    def test_tv_of_binary_pair(self, tmp_path):
        a = build_law_file(tmp_path, "a.json", "--family", "binary", "--p", "0.6")
        b = build_law_file(tmp_path, "b.json", "--family", "binary", "--p", "0.7")
        out = run(["metric", "--kind", "tv", str(a), str(b)])
        assert out.stdout == "0.100000000000\n"

    def test_json_result_carries_certificate(self, tmp_path):
        a = build_law_file(tmp_path, "a.json", "--family", "binary", "--p", "0.6")
        b = build_law_file(tmp_path, "b.json", "--family", "binary", "--p", "0.7")
        out = run(["metric", "--kind", "prohorov", str(a), str(b),
                   "--format", "json", "--no-timestamp"])
        doc = json.loads(out.stdout)
        assert doc["schema"] == "gw-metric-1"
        assert doc["value"] == pytest.approx(0.1, abs=1e-12)
        assert doc["certificate"]["entries"]

    def test_bounded_lipschitz_json_carries_both_sides(self, tmp_path):
        a = build_law_file(tmp_path, "a.json", "--family", "binary", "--p", "0.6")
        b = build_law_file(tmp_path, "b.json", "--family", "binary", "--p", "0.7")
        out = run(["metric", "--kind", "bounded_lipschitz", str(a), str(b),
                   "--format", "json", "--no-timestamp"])
        assert out.returncode == 0, out.stderr
        cert = json.loads(out.stdout)["certificate"]
        assert {"points", "values", "lipschitz", "sup", "upper", "gap"} <= set(cert)
        assert cert["gap"] == pytest.approx(0.0, abs=1e-9)


    def test_non_finite_weight_is_a_typed_error(self, tmp_path):
        a = tmp_path / "nan.json"
        a.write_text('{"support": [[0, 1], [1, 1]], "weights": [NaN, 1.0], "defect": 0.0}')
        b = build_law_file(tmp_path, "b.json", "--family", "binary", "--p", "0.75")
        out = run(["metric", "--kind", "prohorov", str(a), str(b)])
        assert out.returncode == 1
        assert out.stdout == ""
        err = json.loads(out.stderr)
        assert err["error"] == "InvalidParameter"
        assert "finite" in err["message"]

    def test_malformed_measure_file_is_one_error_line(self, tmp_path):
        a = tmp_path / "bad.json"
        a.write_text('{"support": ["0", "1"], "weights": [0.5, 0.5], "defect": 0.0}')
        out = run(["metric", "--kind", "tv", str(a), str(a)])
        assert out.returncode == 1
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        err = json.loads(out.stderr)
        assert err["error"] == "InvalidParameter"
        assert "'0'" in err["message"]

class TestVerifyCommand:
    def test_full_suite_exits_zero(self, tmp_path):
        report = tmp_path / "suite.csv"
        out = run(["verify", "--suite", "all", "--output", str(report),
                   "--no-timestamp"])
        assert out.returncode == 0
        text = report.read_text()
        assert text.startswith("# gw-csv-1 verify\n")
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert rows[0].startswith("claim,")
        assert len(rows) == 14
        assert all(",true," in row for row in rows[1:])

    def test_single_claim(self):
        out = run(["verify", "--suite", "lemma-wlln"])
        assert out.returncode == 0

    def test_unknown_claim_is_usage_error(self):
        out = run(["verify", "--suite", "lemma-nonexistent"])
        assert out.returncode == 2


class TestDeterminism:
    def test_simulate_reruns_byte_identical(self):
        args = ["simulate", "--family", "binary", "--p", "0.75", "--n-max", "3",
                "--replications", "20000", "--seed", "123", "--no-timestamp"]
        first = run(args)
        second = run(args)
        assert first.stdout == second.stdout
        assert first.returncode == 0

    def test_modulus_deterministic_and_jobs_independent(self, tmp_path):
        config = tmp_path / "sweep.json"
        spec = binary_sweep_spec(offsets=(0.0, 0.01), n_max=3)
        config.write_text(json.dumps(spec.to_json_dict()))
        args = ["modulus", "--config", str(config), "--no-timestamp"]
        first = run(args + ["--jobs", "1"])
        second = run(args + ["--jobs", "2"])
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert first.stdout.startswith("# gw-csv-1 modulus\n")

    def test_modulus_config_output_path(self, tmp_path):
        config = tmp_path / "sweep.json"
        target = tmp_path / "rows.csv"
        doc = binary_sweep_spec(offsets=(0.0,), n_max=2).to_json_dict()
        doc["output"] = str(target)
        config.write_text(json.dumps(doc))
        out = run(["modulus", "--config", str(config), "--no-timestamp"])
        assert out.returncode == 0
        header = target.read_text().splitlines()
        assert header[0] == "# gw-csv-1 modulus"


class TestBudgetFlag:
    def test_budget_flag_loosens_truncation(self, tmp_path):
        tight = build_law_file(tmp_path, "tight.json", "--family", "poisson",
                               "--lam", "2.0")
        loose_path = tmp_path / "loose.json"
        out = run(["build-law", "--family", "poisson", "--lam", "2.0", "--budget", "1e-4",
                   "--format", "json", "--output", str(loose_path)])
        assert out.returncode == 0
        tight_doc = json.loads(tight.read_text())
        loose_doc = json.loads(loose_path.read_text())
        assert len(loose_doc["measure"]["support"]) < len(tight_doc["measure"]["support"])

    @pytest.mark.parametrize(
        "args",
        [
            ["law", "--family", "poisson", "--lam", "2", "--n", "2", "--budget", "nan"],
            ["verify", "--budget", "-1"],
        ],
        ids=["flag-nan", "flag-negative"],
    )
    def test_nonfinite_or_negative_budget_is_one_error_line(self, args):
        out = run(args)
        assert out.returncode == 1
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        err = json.loads(out.stderr)
        assert err["error"] == "InvalidParameter"
        assert "finite and nonnegative" in err["message"]

    @pytest.mark.parametrize("args", [
        ["joint", "--family", "polynomial", "--p", "3.5", "--truncation", "30", "--n", "3"],
        ["law", "--family", "poisson", "--lam", "2", "--n", "8"],
    ], ids=["polynomial-joint", "poisson-law"])
    def test_law_defect_past_the_budget_is_carried(self, capsys, args):
        # The budget bounds only the mass the propagation drops; the law's
        # own tail defect is passed on, even past 1e-12.
        assert main([*args, "--format", "json", "--no-timestamp"]) == 0
        assert json.loads(capsys.readouterr().out)["defect"] > 1e-12


class TestFlagsPerCommand:
    @pytest.mark.parametrize("argv", [
        ["modulus", "--config", "sweep.json", "--seed", "7"],
        ["law", "--family", "binary", "--p", "0.75", "--n", "2", "--jobs", "2"],
        ["metric", "--kind", "tv", "a.json", "b.json", "--budget", "1e-6"],
    ], ids=["modulus-seed", "law-jobs", "metric-budget"])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _spec_doc(**changes):
    doc = binary_sweep_spec(offsets=(0.0,), n_max=2).to_json_dict()
    doc.update(changes)
    return doc


class TestErrorChannels:
    def test_domain_error_is_json_on_stderr_with_exit_one(self):
        out = run(["law", "--family", "binary", "--p", "1.5", "--n", "2"])
        assert out.returncode == 1
        assert out.stdout == ""
        err = json.loads(out.stderr)
        assert err["error"] == "InvalidParameter"

    @pytest.mark.parametrize("command, n", [("law", "100000"), ("joint", "40")])
    def test_unaffordable_step_names_the_engine_cap(self, capsys, command, n):
        # The binary(0.75) support widens each generation, so by generation
        # 19 or 20 a step plans more dense write work than the engine allows.
        argv = [command, "--family", "binary", "--p", "0.75", "--n", n]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        err = json.loads(err)
        assert err["error"] == "BudgetExceeded"
        assert "_DENSE_WORK_CAP" in err["message"]

    def test_missing_input_file(self):
        out = run(["metric", "--kind", "tv", "/nonexistent/a.json",
                   "/nonexistent/b.json"])
        assert out.returncode == 1
        err = json.loads(out.stderr)
        assert "message" in err

    def test_usage_error_exits_two(self):
        out = run(["law", "--family", "binary", "--p", "0.75", "--n", "2",
                   "--definitely-not-a-flag"])
        assert out.returncode == 2

    def test_missing_family_parameter(self):
        out = run(["law", "--family", "binary", "--n", "2"])
        assert out.returncode == 1
        err = json.loads(out.stderr)
        assert "needs --p" in err["message"]

    def test_bad_weights_entry_is_one_error_line(self, capsys):
        # The CLI converts the list itself, so ``FamilySpec`` never sees text.
        assert main(["build-law", "--family", "raw", "--weights", "0.5,x"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "InvalidParameter" and "'weights'" in err

    def test_negative_seed_is_a_typed_error(self):
        out = run(["simulate", "--family", "binary", "--p", "0.75", "--n-max", "2",
                   "--seed", "-1"])
        assert out.returncode == 1
        err = json.loads(out.stderr)
        assert err["error"] == "InvalidParameter"
        assert "seed" in err["message"]

    @pytest.mark.parametrize("replications", ["1", "3"])
    def test_simulation_past_int64_is_one_error_line(self, replications):
        out = run(["simulate", "--family", "binary", "--p", "0.75", "--n-max", "3",
                   "--z0", str(2**62), "--cap", str(2**63 - 1),
                   "--replications", replications, "--seed", "0"])
        assert out.returncode == 1
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        err = json.loads(out.stderr)
        assert err["error"] == "InvalidParameter"
        assert "cap" in err["message"]

    def test_start_size_past_int64_is_one_error_line(self):
        out = run(["simulate", "--family", "binary", "--p", "0.75", "--n-max", "2",
                   "--replications", "3", "--z0", str(2**63), "--cap", str(2**63)])
        assert out.returncode == 1
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        err = json.loads(out.stderr)
        assert err["error"] == "InvalidParameter"
        assert "int64" in err["message"]

    @pytest.mark.parametrize("command", ["law", "joint", "estimator-law"])
    def test_exact_route_start_size_past_int64_is_one_error_line(self, command):
        out = run([command, "--family", "binary", "--p", "0.75", "--n", "1",
                   "--z0", str(2**63)])
        assert out.returncode == 1
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        err = json.loads(out.stderr)
        assert err["error"] == "InvalidParameter"
        assert "int64" in err["message"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", ["simulate", "modulus"])
    def test_jobs_below_one_is_one_error_line(self, tmp_path, command, jobs):
        if command == "simulate":
            args = ["simulate", "--family", "binary", "--p", "0.75", "--n-max", "2",
                    "--replications", "10"]
        else:
            # Horizons 1 and 2 are exact, so this sweep never simulates.
            config = tmp_path / "sweep.json"
            doc = binary_sweep_spec(offsets=(0.0,), n_max=2).to_json_dict()
            config.write_text(json.dumps(doc))
            args = ["modulus", "--config", str(config)]
        out = run([*args, "--jobs", jobs])
        assert out.returncode == 1
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        err = json.loads(out.stderr)
        assert err["error"] == "InvalidParameter"
        assert "jobs" in err["message"]

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            ("metric", 5, "weights"),
            ("metric", {"support": 5, "weights": [1.0]}, "support"),
            ("modulus", 5, "center"),
            ("modulus", _spec_doc(z0="abc"), "z0"),
            ("modulus", _spec_doc(center={"family": "binary", "p": "abc"}), "p"),
            ("modulus", _spec_doc(grid=5), "grid"),
            ("modulus", _spec_doc(n_range=5), "n_range"),
            # ``open(True, "w")`` would write to file descriptor 1.
            ("modulus", _spec_doc(output=True), "output"),
            # Integer fields take integral values only: no truncation to
            # ``int``, and no ``OverflowError`` from ``int(inf)``.
            ("modulus", _spec_doc(z0=1.9), "z0"),
            ("modulus", _spec_doc(z0=float("inf")), "z0"),
            ("modulus", _spec_doc(seed=True), "seed"),
            ("modulus", _spec_doc(replications=float("nan")), "replications"),
            ("modulus", _spec_doc(n_range=[1, 2.5]), "n_range"),
            ("modulus", _spec_doc(center={"family": "poisson", "lambda": 2.0,
                                          "truncation": float("inf")}), "truncation"),
            # A field without a default must be present.
            ("modulus", _spec_doc(center={"family": "binary"}), "p"),
            ("modulus", _spec_doc(grid=[{"p": 0.75}]), "family"),
            ("modulus", {k: v for k, v in _spec_doc().items() if k != "n_range"},
             "n_range"),
            # Misspelt keys are refused, not left at their defaults.
            ("modulus", _spec_doc(replication=5, metirc="bounded_lipschitz"), "replication"),
            # Float fields take numbers only: a boolean ran as 1.0 or 0.0, and
            # a string was parsed, or iterated as a list of one-digit weights.
            ("modulus", _spec_doc(budget=True), "budget"),
            ("modulus", _spec_doc(budget="1e-12"), "budget"),
            ("modulus", _spec_doc(center={"family": "binary", "p": "0.75"}), "p"),
            ("modulus", _spec_doc(grid=[{"family": "raw", "weights": "1"}]), "weights"),
            ("metric", {"support": [[0, 1]], "weights": "1"}, "weights"),
            ("metric", {"support": [[0, 1]], "weights": [True]}, "weights"),
            ("metric", {"support": [[0, 1]], "weights": [1.0], "defect": False}, "defect"),
        ],
        ids=["metric-number", "metric-support-number", "modulus-number",
             "modulus-z0-string", "modulus-center-p-string", "modulus-grid-number",
             "modulus-n_range-number", "modulus-output-bool", "modulus-z0-fraction",
             "modulus-z0-inf", "modulus-seed-bool", "modulus-replications-nan",
             "modulus-n_range-fraction", "modulus-truncation-inf",
             "modulus-center-without-p", "modulus-grid-member-without-family",
             "modulus-without-n_range", "modulus-unknown-keys", "modulus-budget-bool",
             "modulus-budget-string", "modulus-center-p-numeric-string",
             "modulus-raw-weights-string", "metric-weights-string", "metric-weights-bool",
             "metric-defect-bool"],
    )
    def test_malformed_json_input_names_the_field(self, tmp_path, command, doc, field):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        if command == "metric":
            out = run(["metric", "--kind", "tv", str(path), str(path)])
        else:
            out = run(["modulus", "--config", str(path)])
        assert out.returncode == 1
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        err = json.loads(out.stderr)
        assert err["error"] == "InvalidParameter"
        assert repr(field) in err["message"]

    @pytest.mark.parametrize(
        "text",
        [
            b'{"support": [[0, 1]], "weights": [1.0], "note": "\xff"}',
            b'{"support": [[' + b"1" * 5000 + b', 1]], "weights": [1.0]}',
            b"[" * 100_000 + b"]" * 100_000,
        ],
        ids=["not-utf8", "int-past-digit-limit", "nesting-past-recursion-limit"],
    )
    @pytest.mark.parametrize("command", ["metric", "modulus"])
    def test_unreadable_input_file_is_one_error_line(self, tmp_path, capsys, command, text):
        path = tmp_path / "input.json"
        path.write_bytes(text)
        if command == "metric":
            argv = ["metric", "--kind", "tv", str(path), str(path)]
        else:
            argv = ["modulus", "--config", str(path)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "InvalidParameter"

    def test_malformed_json_keeps_its_decode_error(self, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text('{"support": ')
        assert main(["modulus", "--config", str(path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "JSONDecodeError"

    @pytest.mark.parametrize(
        "doc, limit",
        [
            (_spec_doc(n_range=[10**30]), "HORIZON_LIMIT"),
            (_spec_doc(n_range=[1, 2**40]), "HORIZON_LIMIT"),
            # k = 50 leaves the exact route at n = 3, so n = 3 is binned.
            (dict(contamination_sweep_spec(k_values=(50,), n_max=3, replications=100)
                  .to_json_dict(), bin_denominator=10**20), "BIN_INDEX_LIMIT"),
        ],
        ids=["horizon-1e30", "horizon-2e40", "bin-denominator-1e20"],
    )
    def test_modulus_past_a_named_limit_is_one_error_line(self, tmp_path, doc, limit):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        out = run(["modulus", "--config", str(path)])
        assert out.returncode == 1
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        err = json.loads(out.stderr)
        assert err["error"] == "InvalidParameter"
        assert limit in err["message"]


# One member of each family, with and without truncation where it applies:
# the spec, its CLI flags and its pinned sweep label.  Polynomial(3) needs a
# looser budget than the default to derive its truncation.
FAMILY_MEMBERS = [
    (FamilySpec.binary(0.75), ["--family", "binary", "--p", "0.75"], "binary(p=0.75)"),
    (FamilySpec.three_point(0.2, 0.5, 0.3),
     ["--family", "three_point", "--p0", "0.2", "--p2", "0.5", "--p3", "0.3"],
     "three_point(0.2,0.5,0.3)"),
    (FamilySpec.poisson(2.0), ["--family", "poisson", "--lam", "2"], "poisson(lam=2)"),
    (FamilySpec.poisson(2.0, truncation=30),
     ["--family", "poisson", "--lam", "2", "--truncation", "30"], "poisson(lam=2)"),
    (FamilySpec.polynomial(3.0), ["--family", "polynomial", "--p", "3"], "polynomial(p=3)"),
    (FamilySpec.polynomial(3.0, truncation=40),
     ["--family", "polynomial", "--p", "3", "--truncation", "40"], "polynomial(p=3)"),
    (FamilySpec.raw([0.25, 0.25, 0.5]), ["--family", "raw", "--weights", "0.25,0.25,0.5"],
     "raw(top=2)"),
]


# Run the command in argv in a child and print its peak RSS in KiB.  This
# interpreter has no other child, so RUSAGE_CHILDREN is the command's own.
PEAK_RSS = """
import resource, subprocess, sys
out = subprocess.run(sys.argv[1:], capture_output=True, text=True)
assert out.returncode == 0, out.stderr
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""

# Set an address-space limit (bytes, first argument) on this interpreter
# only, then run the CLI on the remaining arguments.
LIMITED_CLI = """
import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from gwlab.cli import main
sys.exit(main(sys.argv[2:]))
"""


def peak_mb(args):
    """Peak RSS in MB of ``gw`` run on ``args`` in a child process."""
    out = subprocess.run([sys.executable, "-c", PEAK_RSS, *GW, *args],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return int(out.stdout) / 1024


class TestMemoryCeilings:
    def test_contamination_sweep_tallies_bins_within_its_ceiling(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(contamination_sweep_spec(k_values=(50,)).to_json_dict()))
        peak = peak_mb(["modulus", "--config", str(path), "--jobs", "1", "--no-timestamp"])
        # Five runs peaked at 46.4 MB on a 2-core Xeon (46.42, 46.39, 46.55,
        # 46.32, 46.35 MB).  Certifying the n = 2 pair (3 and 64,111 atoms)
        # before the cheaper horizons, the same run peaked at 54.6 MB, and
        # grouping pair tables at 133.5 MB.
        assert peak < 50.0

    @pytest.mark.parametrize("n, fmt, ceiling",
                             [(12, "json", 58.0), (13, "json", 80.0), (13, "csv", 80.0)])
    def test_joint_is_written_as_it_is_encoded(self, n, fmt, ceiling):
        # Five runs each on a 2-core Xeon: JSON at n = 12 peaked at 52.9-53.1 MB,
        # JSON at n = 13 at 75.1-75.2 MB and CSV at n = 13 at 72.4-72.5 MB.
        # With one dict built per JSON row before writing, JSON peaked at
        # 79.0-79.1 MB (n = 12) and 132.5 MB (n = 13); joining the whole text
        # before writing it, JSON at n = 12 and CSV at n = 13 peaked at
        # 186.9-187.0 MB and 90.1-90.3 MB.
        args = ["joint", "--family", "binary", "--p", "0.75", "--n", str(n), "--format", fmt,
                "--no-timestamp"]
        assert peak_mb(args) < ceiling

    def test_verify_suite_holds_each_joint_law_only_while_it_is_read(self):
        # Five runs peaked at 38.4-38.7 MB on a 2-core Xeon (38.41, 38.69,
        # 38.68, 38.69, 38.67 MB); with every convolution power held as a
        # dense array, 39.2-39.6 MB.  Holding each consistency horizon's joint
        # law through the merge of its deviating rows, merged on sorted
        # copies, the same run peaked at 44.2 MB.
        assert peak_mb(["verify", "--suite", "all", "--no-timestamp"]) < 41.0

    def test_joint_past_the_row_cap_is_refused_under_an_address_space_limit(self):
        # Generation 17 of binary(0.75) plans 8.8 million joint rows and
        # holds 4.9 million.  Written as JSON, they ran out of 1 GB of
        # address space in a bare MemoryError with a traceback; now the plan
        # is refused before any row is built.
        argv = ["joint", "--family", "binary", "--p", "0.75", "--n", "17", "--format", "json"]
        out = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, str(2**30), *argv],
            capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        )
        assert out.returncode == 1
        assert out.stdout == "" and len(out.stderr.splitlines()) == 1
        err = json.loads(out.stderr)
        assert err["error"] == "BudgetExceeded"
        assert "_JOINT_ROW_CAP" in err["message"]

    def test_replication_count_past_the_limit_is_one_error_line(self):
        # 2**62 replications are 2**47 batches, which ran until stopped (an
        # estimated 6,400 years at 44 ns a replication); now they are refused.
        argv = ["simulate", "--family", "binary", "--p", "0.75", "--n-max", "2",
                "--jobs", "1", "--replications", str(2**62)]
        out = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, str(2**30), *argv], capture_output=True,
            text=True, timeout=60, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        )
        assert out.returncode == 1
        assert out.stdout == "" and len(out.stderr.splitlines()) == 1
        err = json.loads(out.stderr)
        assert err["error"] == "InvalidParameter"
        assert "REPLICATION_LIMIT = 10000000000" in err["message"]

    def test_explicit_truncation_past_the_limit_is_one_error_line(self):
        # It ended in an ``_ArrayMemoryError`` traceback from building the law.
        argv = ["build-law", "--family", "poisson", "--lam", "2", "--truncation", "1000000000000"]
        out = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, str(2**30), *argv],
            capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        )
        assert out.returncode == 1
        assert out.stdout == "" and len(out.stderr.splitlines()) == 1
        err = json.loads(out.stderr)
        assert err["error"] == "InvalidParameter"
        assert "MAX_DERIVED_TRUNCATION" in err["message"]


class TestEveryFamily:
    BUDGET = 1e-4

    @pytest.mark.parametrize(
        "spec, flags, label", FAMILY_MEMBERS,
        ids=["binary", "three_point", "poisson", "poisson-truncated", "polynomial",
             "polynomial-truncated", "raw"],
    )
    def test_json_cli_and_label_agree(self, capsys, spec, flags, label):
        assert FamilySpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict()))) == spec
        assert spec.label == label
        argv = ["build-law", *flags, "--budget", str(self.BUDGET), "--format", "json",
                "--no-timestamp"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert FamilySpec.from_json_dict(doc["family"]) == spec
        assert doc["measure"] == build(spec, self.BUDGET).measure.to_json_dict()

    def test_lambda_is_the_json_name_of_lam(self):
        assert FamilySpec.poisson(2.0).to_json_dict() == {"family": "poisson", "lambda": 2.0}

    def test_truncation_applies_to_poisson_and_polynomial_only(self, capsys):
        with pytest.raises(InvalidParameter, match="truncation"):
            FamilySpec("binary", p=0.75, truncation=5)
        argv = ["build-law", "--family", "binary", "--p", "0.75", "--truncation", "5",
                "--budget", str(self.BUDGET), "--format", "json", "--no-timestamp"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["family"] == {"family": "binary", "p": 0.75}


class TestColdStart:
    def test_cli_import_loads_neither_scipy_nor_multiprocessing(self):
        # Poisson laws and the survival transform take their special functions
        # from ``math``, so neither pinned command below loads scipy either.
        flags = ["--format", "json", "--no-timestamp"]
        commands = {
            "simulate_poisson_lam16_n4.json": [
                "simulate", "--family", "poisson", "--lam", "1.6", "--n-max", "4",
                "--replications", "20000", "--seed", "5", *flags],
            "verify_suite_all.json": ["verify", "--suite", "all", *flags],
        }
        out = subprocess.run(
            [sys.executable, "-c", COLD_START, *map(json.dumps, commands.values())],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        before, *outputs, after = map(json.loads, out.stdout.splitlines())
        assert before == []
        for name, output in zip(commands, outputs):
            assert output == (DATA / name).read_text(), name
        assert after == []

    def test_the_polynomial_family_runs_where_scipy_cannot_be_imported(self):
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from gwlab import FamilySpec, build\n"
            "from gwlab.cli import main\n"
            "build(FamilySpec.polynomial(3, truncation=40))\n"
            "sys.exit(main(['law', '--family', 'polynomial', '--p', '3.5', '--truncation', '30',"
            " '--n', '3', '--no-timestamp']))\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout and out.stderr == ""

    def test_exact_commands_run_where_numpy_random_cannot_be_imported(self, tmp_path):
        # The binary sweep and the verify suite take every horizon exactly, so
        # they derive no seed and never load numpy.random, and neither do the
        # estimator-law and metric commands; a one-member contamination sweep
        # simulates from n = 3 and does load it.
        config = tmp_path / "binary_sweep.json"
        config.write_text(json.dumps(binary_sweep_spec().to_json_dict()))
        laws = {p: str(tmp_path / f"binary_p{p}_n6.json") for p in ("0.75", "0.74")}
        flags = ["--format", "json", "--no-timestamp"]
        commands = [
            ("modulus_binary_sweep.csv",
             ["modulus", "--config", str(config), "--jobs", "1", "--no-timestamp"]),
            ("verify_suite_all.csv", ["verify", "--suite", "all", "--no-timestamp"]),
            *((None, ["estimator-law", "--family", "binary", "--p", p, "--n", "6", *flags,
                      "--output", path]) for p, path in laws.items()),
            ("metric_prohorov_binary_p075_p074_n6.json",
             ["metric", "--kind", "prohorov", *laws.values(), *flags]),
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "sys.modules['numpy.random'] = None\n"
            "from gwlab import contamination_sweep_spec, robustness_modulus\n"
            "from gwlab.cli import main\n"
            "for argv in sys.argv[1:]:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        assert main(json.loads(argv)) == 0\n"
            "    print(json.dumps(out.getvalue()))\n"
            "del sys.modules['numpy.random']\n"
            "robustness_modulus(\n"
            "    contamination_sweep_spec(k_values=(20,), n_max=3, replications=4096))\n"
            "print(json.dumps('numpy.random' in sys.modules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, *(json.dumps(argv) for _, argv in commands)],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        *outputs, simulated = map(json.loads, out.stdout.splitlines())
        for (name, _), output in zip(commands, outputs, strict=True):
            assert output == ((DATA / name).read_text() if name else ""), name
        assert simulated is True


# sha256 of ``gw --help`` (key "") and of each subcommand's ``--help`` at 80
# columns on CPython 3.11, recorded before the parser was built from a table.
HELP_DIGESTS = {
    "": "8c9be074bb99018553169b17c727113f94ab6289b4c2bf2242f63e5f084e5daa",
    "build-law": "321d64f654559cfab76f28c6b5093f6c67005f16632be0f559e0a7376c798dbd",
    "law": "22cd57061f4a82e7ffd2d4e569a7b60e63b826113bdd487286d1596de7db2c16",
    "joint": "3546b7d81c548e087d420e600283bea7d0df581d8628ca2363361e78bf378fd9",
    "estimator-law": "80e72716629fc2ec23f1438702edbf90a44f1efaa4d3cdf3b376fc827b99456f",
    "extinction": "ce94e1db0e2001ca1d2d799ae8f427363c8ba1647f57c471aacb51cd199f47a0",
    "metric": "d49b45b0aee26223e5dccb40eb0067afbd58ab9793e26840ec73cb4bb50f8b92",
    "simulate": "560621de10fda978be66b3d875e29226c737f265a11b09426b90832e821de7d9",
    "verify": "db7a9215a6b9fb4940336750c997786677e648eda2f0f106865df3ff3b601ee0",
    "modulus": "6c695a8fcadb5e449e9f907f95e190083142a1e9292abca484475825db7214c9",
}


class TestHelpText:
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pinned on CPython 3.11")
    @pytest.mark.parametrize("command", list(HELP_DIGESTS))
    def test_help_matches_its_digest(self, monkeypatch, capsys, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"] if command else ["--help"])
        assert stop.value.code == 0
        printed = capsys.readouterr().out.encode()
        assert hashlib.sha256(printed).hexdigest() == HELP_DIGESTS[command]


class TestEmit:
    @pytest.mark.parametrize("rows", [[], [(1, 2, 0.5)], [(1, 2, 0.5), (2, 4, 0.25)]])
    def test_json_table_is_what_json_dumps_gives(self, capsys, rows):
        # No command writes a table without rows, which must still read "rows": [].
        args = argparse.Namespace(format="json", no_timestamp=True, output=None)
        columns = ("prev", "curr", "prob")
        _emit(args, "joint", {"n": 1}, columns, iter(rows))
        expected = {"n": 1, "schema": "gw-joint-1", "columns": list(columns),
                    "rows": [dict(zip(columns, row)) for row in rows]}
        assert capsys.readouterr().out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


class TestReferenceOutputBytes:
    """``--no-timestamp`` output is pinned byte for byte to checked-in files."""

    @pytest.mark.parametrize(
        "name, args",
        [
            ("verify_suite_all.json", ["verify", "--suite", "all"]),
            (
                "estimator_law_binary_p075_n8.json",
                ["estimator-law", "--family", "binary", "--p", "0.75", "--n", "8"],
            ),
            (
                "simulate_binary_p075_n6.json",
                ["simulate", "--family", "binary", "--p", "0.75", "--n-max", "6",
                 "--replications", "20000", "--seed", "5"],
            ),
            (
                # Poisson CDF steps fall inside guide-table buckets.
                "simulate_poisson_lam16_n4.json",
                ["simulate", "--family", "poisson", "--lam", "1.6", "--n-max", "4",
                 "--replications", "20000", "--seed", "5"],
            ),
            (
                "simulate_binary_p075_n6_cap12.json",
                ["simulate", "--family", "binary", "--p", "0.75", "--n-max", "6",
                 "--cap", "12", "--replications", "20000", "--seed", "5"],
            ),
            ("verify_suite_all.csv", ["verify", "--suite", "all"]),
            (
                # 25 chunks in 4 batches: the merge folds in more than one batch.
                "simulate_binary_p075_n6_r100k.csv",
                ["simulate", "--family", "binary", "--p", "0.75", "--n-max", "6",
                 "--replications", "100000", "--seed", "5"],
            ),
        ],
    )
    def test_output_matches_reference(self, name, args):
        # The pin's suffix names the output format.
        out = run([*args, "--format", name.rsplit(".", 1)[1], "--no-timestamp"])
        assert out.returncode == 0, out.stderr
        expected = (DATA / name).read_text()
        assert out.stdout == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_joint_matches_reference_on_stdout_and_in_a_file(self, tmp_path, fmt):
        # Both handles take the rows as they are encoded; the bytes must not move.
        args = ["joint", "--family", "binary", "--p", "0.75", "--n", "6", "--format", fmt,
                "--no-timestamp"]
        expected = (DATA / f"joint_binary_p075_n6.{fmt}").read_text()
        out = run(args)
        assert out.returncode == 0, out.stderr
        assert out.stdout == expected
        path = tmp_path / f"joint.{fmt}"
        out = run([*args, "--output", str(path)])
        assert out.returncode == 0, out.stderr
        assert out.stdout == ""
        assert path.read_text() == expected

    @staticmethod
    def metric_of_binary_laws(tmp_path, kind: str) -> str:
        """JSON output of ``gw metric --kind kind`` on the binary(0.75) and
        binary(0.74) estimator laws at n = 6."""
        laws = []
        for p in ("0.75", "0.74"):
            path = tmp_path / f"binary_p{p}_n6.json"
            out = run(["estimator-law", "--family", "binary", "--p", p, "--n", "6",
                       "--format", "json", "--no-timestamp", "--output", str(path)])
            assert out.returncode == 0, out.stderr
            laws.append(str(path))
        out = run(["metric", "--kind", kind, *laws, "--format", "json", "--no-timestamp"])
        assert out.returncode == 0, out.stderr
        return out.stdout

    def test_prohorov_metric_matches_reference(self, tmp_path):
        # The coupling certificate is printed in full, so this pins every
        # entry and the slack as well as the value.
        expected = (DATA / "metric_prohorov_binary_p075_p074_n6.json").read_text()
        assert self.metric_of_binary_laws(tmp_path, "prohorov") == expected

    def test_prohorov_certificate_at_n8_matches_its_digest(self, tmp_path):
        # binary(0.75) against binary(0.755) at n = 8, 2,325 atoms a side: the
        # search's deficit steps at the crossing, so it ends on weighted
        # medians.  The 346,107 bytes are pinned by their sha256.
        law = tmp_path / "binary_p0.755_n8.json"
        out = run(["estimator-law", "--family", "binary", "--p", "0.755", "--n", "8",
                   "--format", "json", "--no-timestamp", "--output", str(law)])
        assert out.returncode == 0, out.stderr
        out = run(["metric", "--kind", "prohorov", str(DATA / "estimator_law_binary_p075_n8.json"),
                   str(law), "--format", "json", "--no-timestamp"])
        assert out.returncode == 0, out.stderr
        printed = out.stdout.encode()
        assert len(printed) == 346_107
        assert hashlib.sha256(printed).hexdigest() == (
            "bd80ee16d14bb792eb2d941975e82a6022caab8761715276905a7abd8d3d7632"
        )

    # Outputs no checked-in file pins, as ``(argv, sha256)`` per format.  The
    # metric commands read the binary(0.75) and binary(0.74) ratio laws at
    # n = 6; the simulate run excludes paths at levels 7-12, whose counts are
    # keyed "1", "10", "11", "12", "2", ... in its JSON.
    DIGESTS = {
        "build-law polynomial": (
            ["build-law", "--family", "polynomial", "--p", "3.5", "--truncation", "30"],
            "51e740993d12d153e235b01076cbfcaf4761e4f50eedf1bad1e1774ad5f10ba3",
            "bd2f92e5b4db1176d4476e212f4c1a8d50262afd41db25ef1a56b0e29736984e"),
        "build-law three_point": (
            ["build-law", "--family", "three_point", "--p0", "0.2", "--p2", "0.5", "--p3", "0.3"],
            "94be18784b5fe901a5e1430d42cc452b8beda456da6065b47fc553d77b75f12f",
            "5a273504841bca8e9a0c837131ffae4b255d46a8847bfeb08f65ce3621045f65"),
        "law": (
            ["law", "--family", "binary", "--p", "0.75", "--n", "6"],
            "d0aca8d44812dd5abd90238abfabba03bdc73f386fe9aebbbef1bd7f43ca2cf3",
            "15743d741825ff9cdc11cf5454eaf6b830dcea2ffc71434d1de84be23ba51367"),
        "extinction": (
            ["extinction", "--family", "binary", "--p", "0.75"],
            "7e1afa6b59f3dc3bed99cee62a79a5d04702e9f51fba0ec6353ed78c08ac2801",
            "a9ed48bddce6ac7dc60139e3a0de33147208c53307961b7208cc60b04d4907bd"),
        "metric tv": (
            ["metric", "--kind", "tv"],
            "e73df153a247fd7db5c5bef71693d45b03bb9ed89edb32249e19a6512f237050",
            "5af34dc48cfe662a596af67a38faa048294486af004f9f2bfbda110461f1badf"),
        "metric prohorov": (
            ["metric", "--kind", "prohorov"],
            "497c8ae3a565cd0758402c6561af01e37e55e7fc019c6da77694bdd60858daf4",
            "7dde278001f66529dfd824a6c1767831fe91a827369ae2e48636432761a8a705"),
        "estimator-law": (
            ["estimator-law", "--family", "three_point", "--p0", "0.2", "--p2", "0.5", "--p3",
             "0.3", "--n", "4", "--conditioned"],
            "ba9c1fc19b529e78c69237301fbc586505f9d0658c15aa16e05ed3543af9d325",
            "bf11caca65a56e64d366bdea5493a665b235eb52747e4b41b454a6267ad57e54"),
        "simulate": (
            ["simulate", "--family", "binary", "--p", "0.75", "--n-max", "12", "--replications",
             "2000", "--seed", "5", "--cap", "50", "--jobs", "1"],
            "df70d83772dc3c3631d134e4991a4957061b0289e63414edb8fd1f1e45e1a93d",
            "7b536c7c3e5742c9e41c5c49adac5b60b4a36b8920f5b26709d7801d4203cc70"),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_output_matches_its_digest(self, tmp_path, capsys, name, fmt):
        argv, *digests = self.DIGESTS[name]
        if name.startswith("metric"):
            for p in ("0.75", "0.74"):
                assert main(["estimator-law", "--family", "binary", "--p", p, "--n", "6",
                             "--format", "json", "--no-timestamp",
                             "--output", str(tmp_path / f"binary_p{p}.json")]) == 0
            argv = [*argv, *(str(tmp_path / f"binary_p{p}.json") for p in ("0.75", "0.74"))]
        assert main([*argv, "--format", fmt, "--no-timestamp"]) == 0
        printed = capsys.readouterr().out.encode()
        assert hashlib.sha256(printed).hexdigest() == digests[fmt == "json"]

    def test_bounded_lipschitz_metric_matches_reference(self, tmp_path):
        # The certificate's function, its sup and slope, and the upper bound
        # and gap are printed in full, so both sides of the value are pinned.
        expected = (DATA / "metric_bounded_lipschitz_binary_p075_p074_n6.json").read_text()
        assert self.metric_of_binary_laws(tmp_path, "bounded_lipschitz") == expected
