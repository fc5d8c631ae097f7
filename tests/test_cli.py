"""Command-line surface: exit codes, JSON outputs, CSV goldens, determinism."""

import json
import math

import numpy as np
import pytest

import bogofisher
from bogofisher import harness, oracle
from bogofisher.cli import cli_main

from helpers import random_model, rephased, run_python


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def squeezer_doc(tmp_path):
    return write_json(
        tmp_path / "sms.json", {"builtin": "single_mode_squeezer", "k": 0, "modes": 1}
    )


@pytest.fixture
def tms_doc(tmp_path):
    return write_json(
        tmp_path / "tms.json",
        {"builtin": "two_mode_squeezer", "k": 0, "kprime": 1, "modes": 2},
    )


@pytest.fixture
def vacuum_state_doc(tmp_path):
    return write_json(
        tmp_path / "vac.json", [{"occ": [0], "re": 1.0, "im": 0.0}]
    )


def test_validate_builtin_exit_zero(squeezer_doc, capsys):
    assert cli_main(["validate", squeezer_doc]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["violations"] == []


def test_validate_failure_exit_two(tmp_path, capsys):
    doc = write_json(
        tmp_path / "bad.json",
        {"modes": 2, "beta1": [[0, 1, 1.0, 0.0]]},
    )
    assert cli_main(["validate", doc]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    assert payload["violations"][0]["constraint"] == "beta_symmetry"


def test_qfi_vacuum_squeezer(squeezer_doc, vacuum_state_doc, capsys):
    assert cli_main(["qfi", squeezer_doc, "--state", vacuum_state_doc]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["qfi"] == pytest.approx(2.0, abs=1e-9)
    assert payload["cramer_rao"]["delta_theta_bound"] == pytest.approx(
        1.0 / math.sqrt(2.0)
    )


def test_qfi_reduced_with_keep(tms_doc, tmp_path, capsys):
    state = write_json(
        tmp_path / "s11.json", [{"occ": [1, 1], "re": 1.0, "im": 0.0}]
    )
    assert cli_main(["qfi", tms_doc, "--state", state, "--keep", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["qfi"] == pytest.approx(20.0, abs=1e-9)
    assert payload["tracing_loss"] == pytest.approx(0.0, abs=1e-12)


def test_qfi_keep_excluding_entangled_support_exits_one(tms_doc, tmp_path, capsys):
    state = write_json(
        tmp_path / "ent.json",
        [
            {"occ": [0, 0], "re": 1.0 / math.sqrt(2), "im": 0.0},
            {"occ": [1, 1], "re": 1.0 / math.sqrt(2), "im": 0.0},
        ],
    )
    assert cli_main(["qfi", tms_doc, "--state", state, "--keep", "0"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SupportError"
    assert err["message"].startswith("state support outside keep")


def test_scan_csv_golden(squeezer_doc, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert cli_main(["scan", squeezer_doc, "--n", "0..6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 8
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert values == pytest.approx([2, 6, 14, 26, 42, 62, 86], abs=1e-9)


def test_scan_byte_determinism(squeezer_doc, tmp_path, monkeypatch):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    monkeypatch.setenv("BOGOFISHER_THREADS", "1")
    assert cli_main(["scan", squeezer_doc, "--n", "0..5", "--out", str(out_a)]) == 0
    monkeypatch.setenv("BOGOFISHER_THREADS", "4")
    assert cli_main(["scan", squeezer_doc, "--n", "0..5", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_scan_fit_output(squeezer_doc, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert (
        cli_main(["scan", squeezer_doc, "--n", "0..8", "--out", str(out), "--fit"])
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert 1.9 <= payload["exponent"] <= 2.01


def test_scan_pair_diagonal(tms_doc, tmp_path):
    out = tmp_path / "pair.csv"
    assert (
        cli_main(
            ["scan", tms_doc, "--n", "0..4", "--pair-with", "1", "--out", str(out)]
        )
        == 0
    )
    lines = out.read_text().splitlines()
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert values == pytest.approx([4, 20, 52, 100, 164], abs=1e-9)


def test_scan_usage_errors(squeezer_doc, capsys):
    assert cli_main(["scan", squeezer_doc, "--n", "0..3", "--m", "0..2"]) == 1
    capsys.readouterr()
    assert cli_main(["scan", squeezer_doc, "--n", "0..3", "--fit"]) == 1


@pytest.mark.parametrize("target", ["missing/scan.csv", ""], ids=["missing-dir", "directory"])
def test_scan_out_it_cannot_write_exits_one(target, squeezer_doc, tmp_path, capsys):
    # A missing directory, or a directory itself: one JSON line, no traceback.
    out = str(tmp_path / target)
    assert cli_main(["scan", squeezer_doc, "--n", "0..1", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = _single_error_line(captured.err)
    assert error["error"] == "UsageError"
    assert error["message"].startswith(f"cannot write {out}: ")


def test_scan_negative_step_prints_the_csv_of_its_absolute_value(tmp_path, capsys):
    bs = write_json(
        tmp_path / "bs.json", {"builtin": "beam_splitter", "k": 0, "kprime": 1, "modes": 2}
    )
    grid = ["scan", bs, "--n", "0..2", "--pair-with", "1"]
    # A bare -1e-3 reads as an option: the step is written --dtheta=-1e-3.
    assert cli_main([*grid, "--dtheta=-1e-3"]) == 0
    backward = capsys.readouterr().out
    assert cli_main([*grid, "--dtheta=1e-3"]) == 0
    assert backward == capsys.readouterr().out


def test_scan_budget_failure_exit_three(squeezer_doc, capsys):
    assert (
        cli_main(["scan", squeezer_doc, "--n", "0..4", "--cutoff", "3"]) == 3
    )
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BudgetError"


@pytest.mark.parametrize(
    "grid, code, error",
    [
        # Long ranges are refused by the truncation they imply, before any
        # point is listed: 10^8 points, then more than a C ssize_t holds.
        (["--n", "0..100000000", "--pair-with", "1"], 3, "BudgetError"),
        (["--n", "0..10000000000000000000000"], 3, "BudgetError"),
        (["--n", "10000000000000000000000"], 3, "BudgetError"),
        (["--n", "0..1", "--pair-with", "1", "--m", "0..100000000"], 3, "BudgetError"),
        # An explicit cutoff admits the range; the scan stops at its first
        # failing point instead of listing 10^8 points.
        (["--n", "0..100000000", "--cutoff", "5", "--pair-with", "1"], 3, "BudgetError"),
        (["--n", "3..2"], 1, "ValueError"),
        (["--n", "0..1", "--pair-with", "1", "--m", "2..1"], 1, "ValueError"),
    ],
    ids=[
        "long-n",
        "past-ssize_t",
        "one-huge-n",
        "long-m",
        "explicit-cutoff",
        "reversed-n",
        "reversed-m",
    ],
)
def test_scan_range_checked_before_points_are_listed(grid, code, error, tmp_path, capsys):
    bs = {"builtin": "beam_splitter", "k": 0, "kprime": 1, "modes": 2}
    model = write_json(tmp_path / "bs.json", bs)
    assert cli_main(["scan", model, *grid]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line(captured.err)["error"] == error


def test_dense_budget_only_where_dense_arrays_are_made(tmp_path, capsys):
    six = {"builtin": "beam_splitter", "k": 0, "kprime": 1, "modes": 6}
    model = write_json(tmp_path / "bs6.json", six)
    # Occupation 2 gives the default cutoff 8: 9^6 basis states, never allocated.
    state = write_json(tmp_path / "s6.json", [{"occ": [2, 0, 0, 0, 0, 0], "re": 1.0}])
    assert cli_main(["qfi", model, "--state", state]) == 0
    assert json.loads(capsys.readouterr().out)["qfi"] == pytest.approx(8.0)
    # scan runs the oracle on each point's sector: up to 1,106 of the 8^6
    # states at cutoff 7.
    assert cli_main(["scan", model, "--n", "0..1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    # On 12 modes the sector of |2, 0, ...> (even totals up to 8) holds
    # 89,402 states: past the budget.
    twelve = write_json(tmp_path / "bs12.json", {**six, "modes": 12})
    assert cli_main(["scan", twelve, "--n", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dense-dimension budget" in _single_error_line(captured.err)["message"]
    # 3^40 ranks would overflow int64 on the sparse route too.
    forty = write_json(tmp_path / "bs40.json", {**six, "modes": 40})
    state = write_json(tmp_path / "s40.json", [{"occ": [1] + [0] * 39, "re": 1.0}])
    assert cli_main(["qfi", forty, "--state", state, "--cutoff", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = _single_error_line(captured.err)
    assert error["error"] == "BudgetError"
    assert "2^62" in error["message"]


def test_qfi_at_occupations_past_int64_products(squeezer_doc, tmp_path, capsys):
    # (n + 1)(n + 2) overflows int64 at this n; one mode keeps the ranks small.
    n = 5_000_000_000
    state = write_json(tmp_path / "big.json", [{"occ": [n], "re": 1.0}])
    assert cli_main(["qfi", squeezer_doc, "--state", state]) == 0
    with open(squeezer_doc, encoding="utf-8") as handle:
        model = bogofisher.load_model(json.load(handle))
    closed = bogofisher.qfi_fock_closed(model, n, 0)
    assert json.loads(capsys.readouterr().out)["qfi"] == pytest.approx(closed.qfi, rel=1e-12)


def test_named_output(tms_doc, capsys):
    assert cli_main(["named", tms_doc, "--n", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["product"]["qfi"] == pytest.approx(164.0)
    assert payload["penalty_demo"]["projection_penalty"] == pytest.approx(25.0)


def test_optimize_single_point(tms_doc, tmp_path, capsys):
    support = write_json(tmp_path / "support.json", [[2, 2]])
    assert (
        cli_main(
            ["optimize", tms_doc, "--support", support, "--avg-n", "4",
             "--restarts", "2", "--max-iter", "200"]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["qfi"] == pytest.approx(52.0, abs=1e-8)
    assert payload["constraint_residual"] < 1e-8


def test_optimize_infeasible_exits_one(tms_doc, tmp_path, capsys):
    support = write_json(tmp_path / "support.json", [[1, 1]])
    assert (
        cli_main(["optimize", tms_doc, "--support", support, "--avg-n", "7"]) == 1
    )
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SupportError"


@pytest.mark.parametrize(
    "flag, value", [("--restarts", "0"), ("--restarts", "-2"), ("--max-iter", "0"), ("--max-iter", "-5")]
)
def test_optimize_rejects_bad_counts(flag, value, tms_doc, tmp_path, capsys):
    support = write_json(tmp_path / "support.json", [[1, 1], [2, 2], [0, 2]])
    argv = ["optimize", tms_doc, "--support", support, "--avg-n", "3", flag, value]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = _single_error_line(captured.err)
    assert error["error"] == "ValueError"
    assert "must be at least 1" in error["message"]


def test_optimize_stdout_identical_across_processes_and_blas_threads(tms_doc, tmp_path):
    support = write_json(
        tmp_path / "support.json", [[0, 0], [1, 1], [2, 2], [3, 1], [1, 3], [0, 4]]
    )
    argv = ["optimize", tms_doc, "--support", support, "--avg-n", "2.5", "--restarts", "3"]
    runs = [
        run_python(["-m", "bogofisher", *argv], extra_env=env)
        for env in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"})
    ]
    code, out, err = runs[0]
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["constraint_residual"] < 1e-12
    assert 0.0 <= payload["stationarity_residual"] <= 1e-4 * payload["qfi"]
    assert all(run == runs[0] for run in runs[1:])


def test_oracle_compare(tms_doc, tmp_path, capsys):
    state = write_json(
        tmp_path / "s11.json", [{"occ": [1, 1], "re": 1.0, "im": 0.0}]
    )
    assert cli_main(["oracle-compare", tms_doc, "--state", state]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["agree"] is True
    assert payload["qfi_perturb"] == pytest.approx(20.0, abs=1e-9)
    assert payload["psi1_distance"] < 1e-6


@pytest.mark.parametrize("dtheta", ["1e-9", "1e-7"])
def test_oracle_compare_refuses_an_estimate_lost_in_round_off(dtheta, tmp_path, capsys):
    # The error bound 64 eps / dtheta^2 widens the tolerance 10 * err with
    # it, so without a cap on the error these steps would agree: at 1e-9
    # the estimate is 0.0 against 16, at 1e-7 it is 15.987 +- 1.42.
    bs = write_json(tmp_path / "bs.json", {"builtin": "beam_splitter", "k": 0, "kprime": 1,
                                           "modes": 2})
    state = write_json(tmp_path / "s11.json", [{"occ": [1, 1], "re": 1.0}])
    assert cli_main(["oracle-compare", bs, "--state", state, "--dtheta", dtheta]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["qfi_perturb"] == pytest.approx(16.0, abs=1e-12)
    assert payload["oracle_err"] > 1e-3 * payload["qfi_perturb"]
    assert payload["agree"] is False


def _phased_model():
    rng = np.random.default_rng(19)
    model = rephased(random_model(rng, 3), rng.uniform(0.0, 2.0 * np.pi, 3))
    return bogofisher.serialize_model(model)


@pytest.mark.parametrize(
    "model, state, support",
    [
        (
            _phased_model(),
            [{"occ": [1, 1, 0], "re": 0.6}, {"occ": [0, 2, 0], "im": 0.8}],
            [[1, 0, 0], [1, 1, 0], [2, 0, 0], [0, 2, 0]],
        ),
        # A beam splitter whose alpha1 is anti-Hermitian only to 5e-11,
        # within validate's tolerance of 1e-10.
        (
            {"modes": 2, "alpha1": [[0, 1, 1.0, 0.0], [1, 0, -0.99999999995, 0.0]]},
            [{"occ": [1, 1], "re": 1.0}],
            [[1, 0], [1, 1], [2, 0], [0, 2]],
        ),
    ],
    ids=["phased", "alpha_residual_5e-11"],
)
def test_every_command_runs_a_model_with_free_evolution_phases(
    model, state, support, tmp_path, capsys
):
    # validate is the one gate: a model that it passes, with G != 1 or with
    # a residual within its tolerance, reaches every command, exact
    # propagation included.
    doc = write_json(tmp_path / "model.json", model)
    state = write_json(tmp_path / "state.json", state)
    support = write_json(tmp_path / "support.json", support)
    runs = [
        ["validate", doc],
        ["qfi", doc, "--state", state],
        ["qfi", doc, "--state", state, "--keep", "0,1"],
        ["scan", doc, "--n", "0..1", "--pair-with", "1"],
        ["named", doc, "--n", "2"],
        ["optimize", doc, "--support", support, "--avg-n", "1.5"],
    ]
    for argv in runs:
        assert cli_main(argv) == 0, argv
    capsys.readouterr()
    assert cli_main(["oracle-compare", doc, "--state", state]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["agree"] is True
    assert payload["psi1_distance"] < 1e-6


def test_unknown_subcommand_exits_one(capsys):
    assert cli_main(["frobnicate"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UsageError"


def test_missing_model_file_exits_one(capsys):
    assert cli_main(["validate", "/nonexistent/model.json"]) == 1


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli_main(["validate", str(path)]) == 2


def test_state_normalization_enforced(squeezer_doc, tmp_path, capsys):
    state = write_json(
        tmp_path / "bad_state.json", [{"occ": [0], "re": 0.5, "im": 0.0}]
    )
    assert cli_main(["qfi", squeezer_doc, "--state", state]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ModelFormatError"


def _fresh_process(argv):
    return run_python(["-m", "bogofisher", *argv])


def test_repeated_calls_match_fresh_processes(squeezer_doc, vacuum_state_doc, capsys):
    calls = [
        ["validate", squeezer_doc],
        ["qfi", squeezer_doc, "--state", vacuum_state_doc, "--nu", "many"],
        ["qfi", squeezer_doc, "--state", vacuum_state_doc, "--nu", "4"],
    ]
    in_process = []
    for argv in calls:
        code = cli_main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [0, 1, 0]
    assert json.loads(in_process[1][2])["error"] == "UsageError"
    assert len(in_process[1][2].splitlines()) == 1
    assert in_process == [_fresh_process(argv) for argv in calls]


def _model_with_nan(where):
    doc = {
        "modes": 2,
        "G": [[1.0, 0.0], [1.0, 0.0]],
        "alpha1": [[0, 1, 1.0, 0.0], [1, 0, -1.0, 0.0]],
        "beta1": [[0, 1, 1.0, 0.0], [1, 0, 1.0, 0.0]],
    }
    if where == "G":
        doc["G"][0] = [float("nan"), 0.0]
    else:
        doc[where][0][2] = float("nan")
    return doc


@pytest.mark.parametrize("where", ["G", "alpha1", "beta1"])
def test_nan_coefficients_fail_validation(where, tmp_path, capsys):
    model = write_json(tmp_path / "nan.json", _model_with_nan(where))
    state = write_json(tmp_path / "s11.json", [{"occ": [1, 1], "re": 1.0, "im": 0.0}])
    support = write_json(tmp_path / "support.json", [[1, 1], [2, 2]])

    assert cli_main(["validate", model]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["violations"]

    # Refused before the oracle is reached, too.
    for argv in (
        ["qfi", model, "--state", state],
        ["optimize", model, "--support", support, "--avg-n", "3", "--restarts", "1"],
        ["scan", model, "--n", "0..1", "--pair-with", "1"],
        ["oracle-compare", model, "--state", state],
    ):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "UnitarityError"


def _single_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_state_amplitude_exits_two(squeezer_doc, tmp_path, capsys, part, value):
    # The other term alone is normalized, so a dropped non-finite term would pass.
    entry = {"occ": [2], "re": 0.0, "im": 0.0}
    entry[part] = value
    state = write_json(tmp_path / "nan_state.json", [{"occ": [0], "re": 1.0, "im": 0.0}, entry])
    assert cli_main(["qfi", squeezer_doc, "--state", state]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line(captured.err)["error"] == "ModelFormatError"


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize(
    "value", [True, "1.0", None, [1.0], 10**400], ids=["bool", "str", "null", "list", "huge"]
)
def test_non_number_state_amplitude_exits_two(tms_doc, tmp_path, capsys, part, value):
    # The only term, so the value is not caught by the norm check instead.
    entry = {"occ": [1, 1], "re": 0.0, "im": 0.0}
    entry[part] = value
    state = write_json(tmp_path / "state.json", [entry])
    assert cli_main(["qfi", tms_doc, "--state", state]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = _single_error_line(captured.err)
    assert error["error"] == "ModelFormatError"
    assert f'state "{part}"' in error["message"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("where", ["G", "alpha1", "beta1"])
def test_validate_stdout_is_strict_json(where, tmp_path, capsys):
    model = write_json(tmp_path / "nan.json", _model_with_nan(where))
    assert cli_main(["validate", model]) == 2
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert report["passed"] is False
    assert None in report["worst_residuals"].values()
    assert any(v["residual"] is None for v in report["violations"])


def test_emit_refuses_non_finite_before_writing(capsys):
    with pytest.raises(ValueError):
        bogofisher.cli._emit({"ok": 1.0, "bad": float("nan")})
    assert capsys.readouterr().out == ""


_TMS = {"builtin": "two_mode_squeezer", "k": 0, "kprime": 1, "modes": 2}


@pytest.mark.parametrize(
    "model",
    [
        {"modes": True, "beta1": []},
        {"modes": 2, "beta1": [[True, 1, 1.0, 0.0], [1, 0, 1.0, 0.0]]},
        {"modes": 2, "alpha1": [[0, False, 1.0, 0.0]]},
        {**_TMS, "modes": True},
        {**_TMS, "k": False},
        {**_TMS, "kprime": True},
        {"builtin": "single_mode_squeezer", "k": True, "modes": 2},
    ],
)
def test_bool_in_model_integer_field_exits_two(model, tmp_path, capsys):
    path = write_json(tmp_path / "bool_model.json", model)
    assert cli_main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line(captured.err)["error"] == "ModelFormatError"


@pytest.mark.parametrize("command", ["qfi", "oracle-compare", "optimize"])
def test_bool_occupation_exits_two(command, tms_doc, tmp_path, capsys):
    if command == "optimize":
        doc = write_json(tmp_path / "support.json", [[1, 1], [True, 1]])
        argv = ["optimize", tms_doc, "--support", doc, "--avg-n", "2"]
    else:
        doc = write_json(tmp_path / "state.json", [{"occ": [True, 1], "re": 1.0, "im": 0.0}])
        argv = [command, tms_doc, "--state", doc]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line(captured.err)["error"] == "ModelFormatError"


@pytest.mark.parametrize(
    "model",
    [
        {"modes": 2, "beta1": [[0, 1, [1], 0.0]]},
        {"modes": 2, "alpha1": [[0, 1, 0.0, {"im": 1}]]},
        {"modes": 2, "G": [["x", 0.0], [1.0, 0.0]]},
        {"modes": 2, "G": [[1.0, None], [1.0, 0.0]]},
        {"modes": 2, "beta1": [[0, 0, "1.5", 0.0]]},
        {"modes": 2, "beta1": [[0, 0, True, 0.0]]},
        {"modes": 2, "beta1": [[0, 0, 10**400, 0.0]]},
    ],
)
@pytest.mark.parametrize("command", ["validate", "qfi"])
def test_non_numeric_coefficient_exits_two(model, command, tmp_path, capsys):
    path = write_json(tmp_path / "model.json", model)
    state = write_json(tmp_path / "state.json", [{"occ": [0, 0], "re": 1.0}])
    argv = ["validate", path] if command == "validate" else ["qfi", path, "--state", state]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = _single_error_line(captured.err)
    assert error["error"] == "ModelFormatError"
    assert "must be numbers" in error["message"]


def test_non_numeric_coefficient_fresh_process(tmp_path):
    path = write_json(tmp_path / "model.json", {"modes": 2, "beta1": [[0, 1, [1], 0.0]]})
    code, out, err = _fresh_process(["validate", path])
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert _single_error_line(err)["error"] == "ModelFormatError"


def test_negative_occupation_is_not_reported_as_cutoff(tms_doc, tmp_path, capsys):
    state = write_json(tmp_path / "state.json", [{"occ": [-1, 0], "re": 1.0, "im": 0.0}])
    assert cli_main(["qfi", tms_doc, "--state", state]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = _single_error_line(captured.err)
    assert error["error"] == "ModelFormatError"
    assert "negative occupation" in error["message"]
    assert "cutoff" not in error["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["named", "M1", "--n", "2"], "mode index 1 out of range for 1 modes"),
        (["scan", "M2", "--n", "0..1", "--pair-with", "7"], "mode index 7 out of range"),
        (["scan", "M1", "--n", "0..1", "--pair-with", "1"], "mode index 1 out of range"),
        (["scan", "M2", "--n", "0..1", "--k", "5"], "mode index 5 out of range"),
        (["named", "M2", "--n", "2", "--k", "9"], "mode index 9 out of range"),
        (["named", "M2", "--n", "2", "--k", "1", "--kprime", "1"], "must be distinct"),
    ],
)
def test_bad_mode_index_exits_one(argv, message, squeezer_doc, tms_doc, capsys):
    models = {"M1": squeezer_doc, "M2": tms_doc}
    assert cli_main([models.get(arg, arg) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = _single_error_line(captured.err)
    assert error["error"] == "ValueError"
    assert message in error["message"]


def test_memory_error_exits_three(tms_doc, tmp_path, monkeypatch, capsys):
    message = "Unable to allocate 8.00 GiB for an array with shape (2**30,) and data type float64"

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(harness, "optimize_state", exhausted)
    support = write_json(tmp_path / "support.json", [[1, 1], [2, 0]])
    assert cli_main(["optimize", tms_doc, "--support", support, "--avg-n", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    error = _single_error_line(captured.err)
    assert error["error"] == "BudgetError"
    assert message in error["message"]


def test_numerical_breakdown_exits_three(squeezer_doc, vacuum_state_doc, monkeypatch, capsys):
    # The vacuum norm term is 2, so a penalty of 0.75 drives the QFI to about -1.
    monkeypatch.setattr(bogofisher.qfi, "overlap_penalty", lambda pair: 0.75)
    assert cli_main(["qfi", squeezer_doc, "--state", vacuum_state_doc]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = _single_error_line(captured.err)
    assert error["error"] == "NumericalBreakdownError"
    assert error["message"].endswith("; numerical breakdown")


_SCAN_GRID = ["--n", "0..1", "--pair-with", "1", "--m", "0..1"]


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["scan", "M", *_SCAN_GRID, "--dtheta", "0"], 1, "ValueError"),
        (["scan", "M", *_SCAN_GRID, "--dtheta", "nan"], 1, "ValueError"),
        # Its square overflows, so it is refused as input before any sweep.
        (["scan", "M", *_SCAN_GRID, "--dtheta", "1e300"], 1, "ValueError"),
        (["scan", "M", *_SCAN_GRID, "--dtheta", "1e20"], 3, "BudgetError"),
        (["oracle-compare", "M", "--state", "S", "--dtheta", "0"], 1, "ValueError"),
        (["oracle-compare", "M", "--state", "S", "--dtheta", "1e20"], 3, "BudgetError"),
        (["scan", "M", *_SCAN_GRID, "--theta", "nan"], 1, "ValueError"),
        (["scan", "M", *_SCAN_GRID, "--theta", "inf"], 1, "ValueError"),
        (["qfi", "M", "--state", "S", "--theta", "nan"], 1, "ValueError"),
        (["qfi", "M", "--state", "S", "--theta=-inf"], 1, "ValueError"),
        # Finite, but theta^2 * qfi overflows the validity ratio.
        (["scan", "M", *_SCAN_GRID, "--theta", "1e200"], 1, "ValueError"),
        (["qfi", "M", "--state", "S", "--theta", "1e200"], 1, "ValueError"),
        # named evaluates the states at first order only: it takes no theta.
        (["named", "M", "--n", "2", "--theta", "nan"], 1, "UsageError"),
    ],
)
def test_bad_step_or_theta_exits_with_one_error(
    argv, code, error, tms_doc, tmp_path, monkeypatch, capsys
):
    # A refused step must stop before the propagator runs, not after it.
    def refuse(*args, **kwargs):
        raise AssertionError("the Taylor stencil ran on a refused step")

    if error == "BudgetError":
        monkeypatch.setattr(oracle, "_taylor_stencil", refuse)
    state = write_json(tmp_path / "s11.json", [{"occ": [1, 1], "re": 1.0, "im": 0.0}])
    files = {"M": tms_doc, "S": state}
    assert cli_main([files.get(arg, arg) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line(captured.err)["error"] == error


def test_zero_step_fresh_process_prints_no_warning(tms_doc, tmp_path):
    state = write_json(tmp_path / "s11.json", [{"occ": [1, 1], "re": 1.0, "im": 0.0}])
    code, out, err = _fresh_process(["oracle-compare", tms_doc, "--state", state,
                                     "--dtheta", "0"])
    assert (code, out) == (1, "")
    assert _single_error_line(err)["error"] == "ValueError"


# Four scan threads on a 4-point grid: more workers than a 2-core host has.
@pytest.mark.parametrize("threads", ["1", "4"])
@pytest.mark.parametrize("command", ["scan", "oracle-compare"])
def test_command_builds_the_hamiltonian_once(command, threads, tmp_path, monkeypatch, capsys):
    builds = []
    real_operator = oracle._Operator

    def counting_operator(*fields):
        builds.append(fields)
        return real_operator(*fields)

    monkeypatch.setattr(oracle, "_Operator", counting_operator)
    monkeypatch.setenv("BOGOFISHER_THREADS", threads)
    model = write_json(
        tmp_path / "tms3.json",
        {"builtin": "two_mode_squeezer", "k": 0, "kprime": 1, "modes": 3},
    )
    state = write_json(tmp_path / "s.json", [{"occ": [1, 1, 0], "re": 1.0, "im": 0.0}])
    argv = {
        "scan": ["scan", model, *_SCAN_GRID, "--keep", "0,1"],
        "oracle-compare": ["oracle-compare", model, "--state", state],
    }[command]
    assert cli_main(argv) == 0
    if command == "scan":
        assert len(capsys.readouterr().out.splitlines()) == 5
    # One build per sector: the scan's (n, m) = (0, 0), (1, 1) and the two
    # odd points (0, 1), (1, 0) have three.
    assert len(builds) == {"scan": 3, "oracle-compare": 1}[command]


def test_pair_creation_past_the_total_shell_exits_three(tmp_path, capsys):
    tms = write_json(
        tmp_path / "tms.json", {"builtin": "two_mode_squeezer", "k": 0, "kprime": 1, "modes": 2}
    )
    vacuum = write_json(tmp_path / "s00.json", [{"occ": [0, 0], "re": 1.0}])
    argv = ["oracle-compare", tms, "--state", vacuum, "--dtheta", "0.05"]
    # Cutoff 6: the sector holds totals 0-6 and no mode reaches the mode
    # shell at 5, but the pairs reach total 6, the total shell.
    assert cli_main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = _single_error_line(captured.err)
    assert error["error"] == "BudgetError"
    assert error["message"].endswith("raise the cutoff")
    assert cli_main([*argv, "--cutoff", "12"]) == 0
    assert json.loads(capsys.readouterr().out)["cutoff"] == 12


@pytest.mark.parametrize("threads", ["1", "2"])
def test_scan_csv_matches_points_with_fresh_generators(threads, tmp_path, monkeypatch):
    doc = bogofisher.serialize_model(random_model(np.random.default_rng(823), 3))
    model = write_json(tmp_path / "model.json", doc)
    out = tmp_path / "scan.csv"
    monkeypatch.setenv("BOGOFISHER_THREADS", threads)
    assert cli_main(["scan", model, *_SCAN_GRID, "--keep", "0,1", "--out", str(out)]) == 0
    # Each point gets its own parsed model, so nothing is shared between points.
    rows = []
    for n in (0, 1):
        for m in (0, 1):
            fresh = bogofisher.load_model(doc)
            rows += bogofisher.scan_fock(
                fresh, 0, [n], kprime=1, m_values=[m],
                keep=bogofisher.ModeSubset.of([0, 1]), cutoff=7, threads=1,
            )
    assert out.read_bytes() == bogofisher.rows_to_csv(rows).encode()


# (id, state document, support document, --cutoff, exit code, error class).
# Documents are JSON text, so that 1e400 reaches the parser as a float
# overflowing to inf.  None marks a fault that a document kind cannot have.
_BAD_DOCUMENTS = [
    ("not-a-list", '{"occ": [1, 1], "re": 1.0}', '{"occ": [1, 1]}', None, 2, "ModelFormatError"),
    ("empty", "[]", "[]", None, 2, "ModelFormatError"),
    ("extra-key", '[{"occ": [1, 1], "re": 1.0, "x": 0}]', '[{"occ": [1, 1]}]', None, 2,
     "ModelFormatError"),
    ("missing-occ", '[{"re": 1.0}]', None, None, 2, "ModelFormatError"),
    ("non-list-occ", '[{"occ": 5, "re": 1.0}]', "[5, [1, 1]]", None, 2, "ModelFormatError"),
    ("bool-occ", '[{"occ": [true, 1], "re": 1.0}]', "[[1, 1], [true, 1]]", None, 2,
     "ModelFormatError"),
    ("float-occ", '[{"occ": [1.0, 1], "re": 1.0}]', "[[1, 1], [1.0, 1]]", None, 2,
     "ModelFormatError"),
    ("ragged", '[{"occ": [1, 1], "re": 0.6}, {"occ": [1], "re": 0.8}]', "[[1, 1], [1]]",
     None, 2, "ModelFormatError"),
    ("negative", '[{"occ": [1, -1], "re": 1.0}]', "[[1, 1], [0, -1]]", None, 2,
     "ModelFormatError"),
    ("over-cutoff", '[{"occ": [1, 4], "re": 1.0}]', None, "3", 2, "ModelFormatError"),
    ("duplicate", '[{"occ": [1, 1], "re": 0.6}, {"occ": [1, 1], "re": 0.8}]',
     "[[1, 1], [2, 0], [1, 1]]", None, 2, "ModelFormatError"),
    ("huge-derived-cutoff", '[{"occ": [1, 10000000000000000000000], "re": 1.0}]',
     "[[1, 1], [1, 10000000000000000000000]]", None, 3, "BudgetError"),
    ("huge-explicit-cutoff", '[{"occ": [1, 10000000000000000000000], "re": 1.0}]', None, "5",
     2, "ModelFormatError"),
    ("bool-re", '[{"occ": [1, 1], "re": true}]', None, None, 2, "ModelFormatError"),
    ("string-re", '[{"occ": [1, 1], "re": "1.0"}]', None, None, 2, "ModelFormatError"),
    ("overflowing-re", '[{"occ": [1, 1], "re": 1e400}]', None, None, 2, "ModelFormatError"),
    ("no-headroom", '[{"occ": [1, 2], "re": 1.0}]', None, "3", 3, "BudgetError"),
]


_BAD_DOCUMENT_RUNS = [
    pytest.param(command, text, cutoff, code, error, id=f"{command}-{name}")
    for name, state, support, cutoff, code, error in _BAD_DOCUMENTS
    for command, text in [("qfi", state), ("oracle-compare", state), ("optimize", support)]
    if text is not None
]


@pytest.mark.parametrize("command, text, cutoff, code, error", _BAD_DOCUMENT_RUNS)
def test_bad_document_exits_with_one_error(
    command, text, cutoff, code, error, tms_doc, tmp_path, capsys
):
    doc = tmp_path / "doc.json"
    doc.write_text(text, encoding="utf-8")
    if command == "optimize":
        argv = ["optimize", tms_doc, "--support", str(doc), "--avg-n", "2"]
    else:
        argv = [command, tms_doc, "--state", str(doc)]
    if cutoff is not None:
        argv += ["--cutoff", cutoff]
    assert cli_main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line(captured.err)["error"] == error


def test_support_fault_exits_like_state_fault(tms_doc, tmp_path, capsys):
    # The same fault in either document kind exits 2; an infeasible target exits 1.
    support = write_json(tmp_path / "support.json", [[1, 1], [2, 0], [1, 1]])
    assert cli_main(["optimize", tms_doc, "--support", support, "--avg-n", "2"]) == 2
    error = _single_error_line(capsys.readouterr().err)
    assert error == {
        "error": "ModelFormatError",
        "message": "duplicate support entry for occupation (1, 1)",
    }
    support = write_json(tmp_path / "support.json", [[1, 1], [2, 0]])
    assert cli_main(["optimize", tms_doc, "--support", support, "--avg-n", "9"]) == 1
    assert _single_error_line(capsys.readouterr().err)["error"] == "SupportError"


def test_default_cutoff_is_largest_occupation_plus_six(tms_doc, tmp_path, capsys):
    state = write_json(
        tmp_path / "state.json",
        [{"occ": [0, 3], "re": 0.6}, {"occ": [1, 2], "im": 0.8}],
    )
    assert cli_main(["qfi", tms_doc, "--state", state]) == 0
    assert json.loads(capsys.readouterr().out)["cutoff"] == 9


@pytest.mark.parametrize("keep", [None, "0", "0,0"])
def test_zero_terms_print_without_sign(keep, tmp_path, capsys):
    # |1,1> under the beam splitter: no projection penalty and no tracing loss.
    model = write_json(
        tmp_path / "bs.json", {"builtin": "beam_splitter", "k": 0, "kprime": 1, "modes": 2}
    )
    state = write_json(tmp_path / "s11.json", [{"occ": [1, 1], "re": 1.0}])
    argv = ["qfi", model, "--state", state] + ([] if keep is None else ["--keep", keep])
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert "-0.0" not in out
    breakdown = json.loads(out)["breakdown"]
    assert 0.0 in breakdown.values()


@pytest.mark.parametrize("keep", [None, "0"])
def test_zero_qfi_prints_null_bound(keep, tmp_path, capsys):
    # The vacuum under a beam splitter has no QFI, so no finite Cramer-Rao bound.
    model = write_json(
        tmp_path / "bs.json", {"builtin": "beam_splitter", "k": 0, "kprime": 1, "modes": 2}
    )
    state = write_json(tmp_path / "vacuum.json", [{"occ": [0, 0], "re": 1.0}])
    argv = ["qfi", model, "--state", state] + ([] if keep is None else ["--keep", keep])
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert '"qfi": 0.0' in out
    assert '"delta_theta_bound": null' in out
    assert json.loads(out)["cramer_rao"]["delta_theta_bound"] is None


def _huge_model(value):
    return {"modes": 2, "alpha1": [[0, 1, value, 0.0], [1, 0, -value, 0.0]]}


# At 1e154 on |1> the QFI's norm term overflows to inf and its penalty to -inf.
def _huge_one_mode(value):
    return {"modes": 1, "alpha1": [[0, 0, 0.0, value]]}


# At 1e307 each mode's diagonal term of H fits in a float and their sum on a
# basis state does not: it overflows while the oracle operator is built,
# before any scan point.
def _huge_diagonal(value):
    return {"modes": 3, "alpha1": [[k, k, 0.0, value] for k in range(3)]}


_SCAN_ARGS = ["--n", "0..2", "--pair-with", "1"]


# Each fresh-process run: its command, model and state occupation.
_FRESH_OVERFLOW_RUNS = {
    "oracle-compare": ("oracle-compare", _huge_model, [1, 1]),
    "qfi": ("qfi", _huge_model, [1, 1]),
    "scan": ("scan", _huge_diagonal, None),
    "qfi-one-mode": ("qfi", _huge_one_mode, [1]),
}


@pytest.mark.parametrize(
    "run, value",
    [("oracle-compare", 1e154), ("oracle-compare", 1e308), ("qfi", 1e154), ("qfi", 1e308),
     ("scan", 1e307), ("qfi-one-mode", 1e154)],
)
def test_overflowing_model_fresh_process_exits_three(run, value, tmp_path):
    # numpy's overflow warning would reach stderr here; tier-1 turns it into
    # an exception inside pytest, so only a fresh process shows the leak.
    command, huge, occ = _FRESH_OVERFLOW_RUNS[run]
    model = write_json(tmp_path / "model.json", huge(value))
    if occ is None:
        argv = [command, model, *_SCAN_ARGS]
    else:
        state = write_json(tmp_path / "state.json", [{"occ": occ, "re": 1.0}])
        argv = [command, model, "--state", state]
    assert _fresh_process(["validate", model])[0] == 0
    code, out, err = _fresh_process(argv)
    assert (code, out) == (3, "")
    assert "Warning" not in err
    assert _single_error_line(err)["error"] == "NumericalBreakdownError"


@pytest.mark.parametrize("value", [1e154, 1e200, 1e308])
@pytest.mark.parametrize(
    "argv",
    [
        ["qfi", "M", "--state", "S22"],
        ["qfi", "M", "--state", "S22", "--keep", "0"],
        ["qfi", "M", "--state", "MIXED"],
        ["oracle-compare", "M", "--state", "MIXED"],
        ["scan", "M", *_SCAN_ARGS],
        ["scan", "DIAGONAL", *_SCAN_ARGS],
        ["named", "M", "--n", "2"],
        ["optimize", "M", "--support", "SUPPORT", "--avg-n", "3", "--restarts", "2"],
        ["qfi", "ONE_MODE", "--state", "S1"],
    ],
    ids=["qfi", "qfi-keep", "qfi-superposition", "oracle-compare", "scan", "scan-diagonal",
         "named", "optimize", "qfi-one-mode"],
)
def test_overflowing_model_exits_three(argv, value, tmp_path, capsys):
    files = {
        "M": write_json(tmp_path / "model.json", _huge_model(value)),
        "ONE_MODE": write_json(tmp_path / "one_mode.json", _huge_one_mode(value)),
        "S1": write_json(tmp_path / "s1.json", [{"occ": [1], "re": 1.0}]),
        # Not scaled by value: at 1e307 only the sum over modes overflows.
        "DIAGONAL": write_json(tmp_path / "diagonal.json", _huge_diagonal(1e307)),
        "S22": write_json(tmp_path / "s22.json", [{"occ": [2, 2], "re": 1.0}]),
        "MIXED": write_json(
            tmp_path / "mixed.json", [{"occ": [1, 1], "re": 0.6}, {"occ": [2, 0], "im": 0.8}]
        ),
        "SUPPORT": write_json(tmp_path / "support.json", [[1, 1], [2, 0], [0, 2], [3, 3]]),
    }
    assert cli_main([files.get(arg, arg) for arg in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line(captured.err)["error"] in ("BudgetError", "NumericalBreakdownError")
