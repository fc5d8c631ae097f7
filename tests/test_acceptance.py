"""Acceptance suite: one test per criterion, printing PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each criterion asserts its stated tolerances.
"""

import math
import time

import numpy as np
import pytest

from bogofisher import (
    BogoliubovFirstOrder,
    ModeLayout,
    ModeSubset,
    StateVector,
    average_particle_number,
    beam_splitter,
    coherent_state,
    derivative_states,
    fit_scaling,
    generator_from_model,
    optimize_state,
    qfi_fidelity_mixed,
    qfi_fidelity_pure,
    qfi_fock_closed,
    qfi_mixed_matrix_element,
    qfi_pure,
    qfi_reduced,
    scan_fock,
    single_mode_squeezer,
    tracing_loss,
    transform_first_order,
    two_mode_squeezer,
    vacuum_loss_bound,
    vacuum_qfi,
)
from bogofisher.cli import cli_main

from helpers import (
    dense_generator_matrix,
    extract_first_order,
    random_generator,
    random_state,
)
from bogofisher import build_generator


def _verdict(number: int, description: str, checks: list[tuple[bool, str]]) -> None:
    failed = [msg for ok, msg in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"{status} criterion {number}: {description}")
    assert not failed, f"criterion {number} failed: {failed}"


def test_criterion_01_squeezed_vacuum_qfi():
    start = time.perf_counter()
    model = single_mode_squeezer(0, 1)
    layout = ModeLayout(1, 10)
    vac = StateVector.vacuum(layout)
    analytic = qfi_pure(transform_first_order(model, vac))
    oracle = qfi_fidelity_pure(generator_from_model(model), vac)
    elapsed = time.perf_counter() - start
    checks = [
        (abs(analytic - 2.0) <= 1e-9, f"analytic {analytic!r} not 2 +- 1e-9"),
        (
            abs(oracle.value - analytic) <= 1e-6,
            f"oracle {oracle.value!r} disagrees beyond 1e-6",
        ),
        (elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"),
    ]
    _verdict(1, "squeezed-vacuum QFI equals 2 on both routes", checks)


def test_criterion_02_fock_heisenberg_scaling():
    start = time.perf_counter()
    model = single_mode_squeezer(0, 1)
    rows = scan_fock(model, 0, range(0, 9))
    checks = []
    for row in rows:
        want = 2.0 * (row.n**2 + row.n + 1)
        checks.append(
            (
                abs(row.qfi_closed - want) <= 1e-10
                and abs(row.qfi_perturb - want) <= 1e-10,
                f"analytic paths off at n={row.n}",
            )
        )
        checks.append(
            (
                abs(row.qfi_closed - row.qfi_perturb) <= 1e-10,
                f"analytic disagreement at n={row.n}",
            )
        )
        checks.append(
            (
                abs(row.qfi_oracle - want) <= 1e-5,
                f"oracle off at n={row.n}: {row.qfi_oracle!r}",
            )
        )
        checks.append((row.cutoff >= row.n + 6, f"cutoff headroom at n={row.n}"))
    exponent = fit_scaling(
        [r.n for r in rows], [r.qfi_perturb for r in rows], vacuum_term=vacuum_qfi(model)
    )
    checks.append(
        (1.90 <= exponent <= 2.01, f"fitted exponent {exponent:.4f} outside [1.90, 2.01]")
    )
    elapsed = time.perf_counter() - start
    checks.append((elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"))
    _verdict(2, "Fock scan gives 2(n^2+n+1) with quadratic scaling", checks)


def test_criterion_03_two_mode_squeezer_diagonal():
    model = two_mode_squeezer(0, 1, 2)
    rows = scan_fock(model, 0, range(0, 5), kprime=1)
    expected = [4.0, 20.0, 52.0, 100.0, 164.0]
    checks = []
    for row, want in zip(rows, expected):
        checks.append(
            (
                abs(row.qfi_closed - want) <= 1e-10
                and abs(row.qfi_perturb - want) <= 1e-10,
                f"analytic paths off at n={row.n}",
            )
        )
        checks.append(
            (abs(row.qfi_oracle - want) <= 1e-5, f"oracle off at n={row.n}")
        )
    for n in range(0, 5):
        report = qfi_fock_closed(model, [n, n])
        terms = dict(report.breakdown)
        checks.append(
            (terms["vacuum"] == pytest.approx(4.0), f"vacuum term missing at n={n}")
        )
        checks.append(
            (
                report.qfi - terms["vacuum"] == pytest.approx(8.0 * n * (n + 1), abs=1e-10),
                f"value minus vacuum term is not 8n(n+1) at n={n}",
            )
        )
    _verdict(3, "two-mode squeezer diagonal scan gives 4(n^2+(n+1)^2)", checks)


def test_criterion_04_beam_splitter_cross_term():
    from bogofisher import beam_splitter

    model = beam_splitter(0, 1, 2)
    rows = scan_fock(model, 0, range(0, 5), kprime=1, m_values=range(0, 5))
    checks = []
    for row in rows:
        want = 8.0 * row.n * row.m + 4.0 * row.n + 4.0 * row.m
        checks.append(
            (
                abs(row.qfi_closed - want) <= 1e-10
                and abs(row.qfi_perturb - want) <= 1e-10,
                f"analytic off at (n, m)=({row.n}, {row.m})",
            )
        )
        checks.append(
            (
                abs(row.qfi_oracle - want) <= 1e-5,
                f"oracle off at (n, m)=({row.n}, {row.m})",
            )
        )
    _verdict(4, "beam-splitter grid gives 8nm+4n+4m on all three routes", checks)


def test_criterion_05_tracing_loss_identity():
    start = time.perf_counter()
    keep = ModeSubset.of([0])
    layout = ModeLayout(2, 10)
    vac = StateVector.vacuum(layout)
    checks = []
    for s in (0.25, 0.5, 1.0):
        model = BogoliubovFirstOrder(
            np.ones(2), np.zeros((2, 2)), np.diag([1.0, s]).astype(complex)
        )
        loss = tracing_loss(model, vac, keep)
        checks.append(
            (abs(loss - 2.0 * s * s) <= 1e-12, f"loss {loss!r} not 2s^2 at s={s}")
        )
        report = qfi_reduced(model, vac, keep)
        checks.append(
            (abs(report.qfi - 2.0) <= 1e-12, f"reduced {report.qfi!r} not 2 at s={s}")
        )
        oracle = qfi_fidelity_mixed(generator_from_model(model), vac, keep)
        checks.append(
            (
                abs(oracle.value - report.qfi) <= 1e-4,
                f"Uhlmann {oracle.value!r} off beyond 1e-4 at s={s}",
            )
        )
    elapsed = time.perf_counter() - start
    checks.append((elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"))
    _verdict(5, "independent squeezers: loss 2s^2, reduced QFI 2, Uhlmann agrees", checks)


def test_criterion_06_mixed_matrix_element_route():
    model = two_mode_squeezer(0, 1, 2)
    layout = ModeLayout(2, 12)
    state = StateVector.from_occupation(layout, [1, 1])
    keep = ModeSubset.of([0])
    ders = derivative_states(generator_from_model(model), state, keep=keep)
    psi0_k = StateVector.from_occupation(ModeLayout(1, 12), [1])
    value = qfi_mixed_matrix_element(ders.rho2, psi0_k)
    reduced = qfi_reduced(model, state, keep).qfi
    checks = [
        (
            abs(value - reduced) <= 1e-4,
            f"matrix-element route {value!r} vs reduced {reduced!r}",
        )
    ]
    _verdict(6, "single-matrix-element route matches the reduced QFI", checks)


def test_criterion_07_first_order_identity_suite():
    rng = np.random.default_rng(2024)
    layout = ModeLayout(3, 8)
    dense_layout = ModeLayout(3, 5)
    worst_identity = 0.0
    worst_antiherm = 0.0
    for _ in range(50):
        gen = random_generator(rng, 3, 0.4)
        keep_size = int(rng.integers(1, 3))
        keep = ModeSubset.of(rng.choice(3, size=keep_size, replace=False))
        state = random_state(
            rng, layout, modes=list(keep.indices), terms=int(rng.integers(1, 3)),
            max_occ=2,
        )
        ders = derivative_states(gen, state, keep=keep)
        sub_layout = ModeLayout(len(keep.indices), layout.cutoff)
        psi0_k = StateVector(
            sub_layout,
            {tuple(occ[i] for i in keep.indices): amp for occ, amp in state.items()},
            prune=0.0,
        )
        worst_identity = max(worst_identity, abs(ders.rho1.expectation(psi0_k)))
        model = extract_first_order(gen)
        K = dense_generator_matrix(build_generator(model), dense_layout)
        worst_antiherm = max(worst_antiherm, float(np.max(np.abs(K + K.conj().T))))
    checks = [
        (worst_identity < 1e-8, f"worst first-order identity {worst_identity:.3e}"),
        (worst_antiherm < 1e-10, f"worst anti-Hermiticity {worst_antiherm:.3e}"),
    ]
    _verdict(7, "first-order identity and generator anti-Hermiticity hold", checks)


def test_criterion_08_classical_state_contrast():
    start = time.perf_counter()
    layout = ModeLayout(1, 40)
    gen = generator_from_model(single_mode_squeezer(0, 1))
    nbars, values = [], []
    for occupancy in range(1, 9):
        state = coherent_state(layout, 0, math.sqrt(occupancy))
        estimate = qfi_fidelity_pure(gen, state)
        nbars.append(average_particle_number(state))
        values.append(estimate.value)
    coherent_exponent = fit_scaling(nbars, values, vacuum_term=2.0)
    model = single_mode_squeezer(0, 1)
    rows = scan_fock(model, 0, range(0, 9))
    fock_exponent = fit_scaling(
        [r.n for r in rows], [r.qfi_perturb for r in rows], vacuum_term=vacuum_qfi(model)
    )
    elapsed = time.perf_counter() - start
    checks = [
        (
            abs(coherent_exponent - 1.0) <= 0.15,
            f"coherent exponent {coherent_exponent:.4f} not 1 +- 0.15",
        ),
        (fock_exponent >= 1.9, f"Fock exponent {fock_exponent:.4f} below 1.9"),
        (elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"),
    ]
    _verdict(8, "coherent states scale linearly versus quadratic Fock scaling", checks)


def test_criterion_09_vacuum_bound_property():
    rng = np.random.default_rng(4096)
    layout = ModeLayout(3, 8)
    checks = []
    equalities = 0
    models = [extract_first_order(random_generator(rng, 3, 0.5)) for _ in range(100)]
    for model in models:
        keep_size = int(rng.integers(1, 4))
        keep = ModeSubset.of(rng.choice(3, size=keep_size, replace=False))
        parity = int(rng.integers(0, 2))
        state = random_state(
            rng, layout, modes=list(keep.indices), terms=int(rng.integers(1, 4)),
            max_occ=4, parity=parity,
        )
        loss = tracing_loss(model, state, keep)
        bound = vacuum_loss_bound(model, keep)
        checks.append(
            (loss >= bound - 1e-12, f"loss {loss!r} below bound {bound!r}")
        )
        if abs(loss - bound) < 1e-9:
            equalities += 1
    checks.append((equalities >= 1, "no equality cases observed"))
    _verdict(
        9,
        f"tracing loss >= vacuum bound on 100 random models ({equalities} equalities)",
        checks,
    )


def test_criterion_10_determinism(tmp_path, monkeypatch):
    import json

    model_path = tmp_path / "sms.json"
    model_path.write_text(
        json.dumps({"builtin": "single_mode_squeezer", "k": 0, "modes": 1}),
        encoding="utf-8",
    )
    tms_path = tmp_path / "tms.json"
    tms_path.write_text(
        json.dumps(
            {"builtin": "two_mode_squeezer", "k": 0, "kprime": 1, "modes": 2}
        ),
        encoding="utf-8",
    )
    outputs = []
    for run, threads in enumerate(("2", "5")):
        monkeypatch.setenv("BOGOFISHER_THREADS", threads)
        a = tmp_path / f"sms_{run}.csv"
        b = tmp_path / f"tms_{run}.csv"
        assert cli_main(["scan", str(model_path), "--n", "0..6", "--out", str(a)]) == 0
        assert (
            cli_main(
                ["scan", str(tms_path), "--n", "0..4", "--pair-with", "1",
                 "--out", str(b)]
            )
            == 0
        )
        outputs.append((a.read_bytes(), b.read_bytes()))
    checks = [
        (outputs[0][0] == outputs[1][0], "single-mode scan CSV not byte-identical"),
        (outputs[0][1] == outputs[1][1], "two-mode scan CSV not byte-identical"),
    ]
    _verdict(10, "repeated acceptance scans produce byte-identical CSVs", checks)


def test_criterion_11_optimized_states_reach_heisenberg_scaling():
    start = time.perf_counter()
    model = beam_splitter(0, 1, 2)
    nbars = list(range(1, 7))
    checks = []
    best = []
    for nbar in nbars:
        # Every 2-mode occupation up to twice the target mean.
        support = [(a, b) for a in range(2 * nbar + 1) for b in range(2 * nbar + 1 - a)]
        result = optimize_state(model, support, float(nbar), restarts=2)
        best.append(result.qfi)
        product = max(
            qfi_fock_closed(model, [a, nbar - a]).qfi for a in range(nbar + 1)
        )
        checks.append(
            (
                result.qfi >= product - 1e-9 * product,
                f"optimized {result.qfi!r} below product Fock {product!r} at nbar={nbar}",
            )
        )
        checks.append(
            (result.constraint_residual <= 1e-12, f"constraint residual at nbar={nbar}")
        )
    exponent = fit_scaling(nbars, best)
    checks.append(
        (abs(exponent - 2.0) <= 0.05, f"fitted exponent {exponent:.4f} outside 2 +- 0.05")
    )
    # The 45-state support of every 2-mode occupation with total <= 8.
    support = [(a, b, 0) for a in range(9) for b in range(9 - a)]
    target = sum(map(sum, support)) / len(support)
    squeezer = two_mode_squeezer(0, 1, 3)
    for restarts in (2, 8):
        value = optimize_state(squeezer, support, target, restarts=restarts).qfi
        checks.append(
            (value >= 143.1, f"45-state optimum {value!r} below 143.1 at {restarts} restarts")
        )
    elapsed = time.perf_counter() - start
    checks.append((elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"))
    _verdict(
        11,
        f"optimized full-support QFI scales with exponent {exponent:.4f} "
        f"({best[-1] / nbars[-1] ** 2:.4f} nbar^2)",
        checks,
    )
