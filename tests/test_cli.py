"""Command-line surface: exit codes, JSON outputs, CSV goldens, determinism."""

import json
import math

import numpy as np
import pytest

import bogofisher
from bogofisher import oracle
from bogofisher.cli import cli_main

from helpers import random_model, run_python


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


def test_scan_budget_failure_exit_three(squeezer_doc, capsys):
    assert (
        cli_main(["scan", squeezer_doc, "--n", "0..4", "--cutoff", "3"]) == 3
    )
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BudgetError"


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

    for argv in (
        ["qfi", model, "--state", state],
        ["optimize", model, "--support", support, "--avg-n", "3", "--restarts", "1"],
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
    ],
)
def test_bad_step_or_theta_exits_with_one_error(
    argv, code, error, tms_doc, tmp_path, monkeypatch, capsys
):
    # A refused sweep must stop before the propagator runs, not after it.
    def refuse(*args, **kwargs):
        raise AssertionError("expm_multiply ran on a refused step")

    if error == "BudgetError":
        monkeypatch.setattr(oracle, "expm_multiply", refuse)
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
    real_hamiltonian = oracle.hamiltonian

    def counting_hamiltonian(gen, layout):
        builds.append(layout)
        return real_hamiltonian(gen, layout)

    monkeypatch.setattr(oracle, "hamiltonian", counting_hamiltonian)
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
    assert len(builds) == 1


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
