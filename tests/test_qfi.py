"""QFI quantities: pure, tracing loss, reduced, closed forms, mixed route."""

import math

import numpy as np
import pytest

from bogofisher import (
    BogoliubovFirstOrder,
    DensityOperator,
    ModeLayout,
    ModeSubset,
    StateVector,
    SupportError,
    beam_splitter,
    derivative_states,
    generator_from_model,
    overlap_penalty,
    qfi_fock_closed,
    qfi_mixed_matrix_element,
    qfi_pure,
    qfi_pure_report,
    qfi_reduced,
    qfi_two_mode_closed,
    single_mode_squeezer,
    tracing_loss,
    transform_first_order,
    two_mode_squeezer,
    vacuum_loss_bound,
    vacuum_qfi,
)

from helpers import loop_first_order, random_model, random_state, rephased


def _pair(model, layout, occ):
    return transform_first_order(model, StateVector.from_occupation(layout, occ))


def independent_squeezers_model(s: float) -> BogoliubovFirstOrder:
    return BogoliubovFirstOrder(
        np.ones(2), np.zeros((2, 2)), np.diag([1.0, s]).astype(complex)
    )


def test_qfi_pure_squeezer_values():
    model = single_mode_squeezer(0, 1)
    layout = ModeLayout(1, 10)
    for n in range(0, 7):
        value = qfi_pure(_pair(model, layout, [n]))
        assert value == pytest.approx(2 * (n * n + n + 1), abs=1e-10)


def test_qfi_pure_two_mode_squeezer():
    model = two_mode_squeezer(0, 1, 2)
    assert qfi_pure(_pair(model, ModeLayout(2, 5), [1, 1])) == pytest.approx(20.0)


def test_qfi_report_breakdown_sums():
    model = single_mode_squeezer(0, 1)
    report = qfi_pure_report(_pair(model, ModeLayout(1, 8), [2]))
    assert sum(v for _, v in report.breakdown) == pytest.approx(report.qfi)
    assert report.cramer_rao(4) == pytest.approx(1.0 / math.sqrt(4 * report.qfi))


def test_tracing_loss_keep_all_is_zero():
    model = two_mode_squeezer(0, 1, 2)
    layout = ModeLayout(2, 5)
    state = StateVector.from_occupation(layout, [1, 1])
    assert tracing_loss(model, state, ModeSubset.of([0, 1])) == 0.0


def test_tracing_loss_independent_squeezers():
    for s in (0.25, 0.5, 1.0):
        model = independent_squeezers_model(s)
        vac = StateVector.vacuum(ModeLayout(2, 6))
        loss = tracing_loss(model, vac, ModeSubset.of([0]))
        assert loss == pytest.approx(2 * s * s, abs=1e-12)


def test_tracing_loss_two_mode_squeezer_fock_input_is_zero():
    # the pair-creation term lands on an orthogonal kept state, so the
    # reduced QFI keeps the full pure value (loss equals the vacuum bound 0)
    model = two_mode_squeezer(0, 1, 2)
    layout = ModeLayout(2, 8)
    keep = ModeSubset.of([0])
    for n in (0, 1, 3):
        state = StateVector.from_occupation(layout, [n, 0])
        assert tracing_loss(model, state, keep) == pytest.approx(0.0, abs=1e-12)
        assert vacuum_loss_bound(model, keep) == 0.0


def test_tracing_loss_requires_fixed_complement():
    model = two_mode_squeezer(0, 1, 2)
    layout = ModeLayout(2, 6)
    entangled = StateVector(
        layout, {(0, 0): 1 / math.sqrt(2), (1, 1): 1 / math.sqrt(2)}
    )
    with pytest.raises(SupportError, match="state support outside keep"):
        tracing_loss(model, entangled, ModeSubset.of([0]))


def test_qfi_reduced_keep_all_equals_pure():
    model = two_mode_squeezer(0, 1, 2)
    layout = ModeLayout(2, 6)
    state = StateVector.from_occupation(layout, [2, 2])
    report = qfi_reduced(model, state, ModeSubset.of([0, 1]))
    assert report.qfi == pytest.approx(qfi_pure(_pair(model, layout, [2, 2])))
    assert report.tracing_loss == 0.0


def test_qfi_reduced_two_mode_squeezer_11():
    model = two_mode_squeezer(0, 1, 2)
    state = StateVector.from_occupation(ModeLayout(2, 6), [1, 1])
    report = qfi_reduced(model, state, ModeSubset.of([0]))
    assert report.qfi == pytest.approx(20.0, abs=1e-10)
    assert report.tracing_loss == pytest.approx(0.0, abs=1e-12)


def test_qfi_reduced_vacuum_with_local_beta_only():
    beta = np.zeros((2, 2), dtype=complex)
    beta[0, 0] = 1.0
    model = BogoliubovFirstOrder(np.ones(2), np.zeros((2, 2)), beta)
    vac = StateVector.vacuum(ModeLayout(2, 6))
    report = qfi_reduced(model, vac, ModeSubset.of([0]))
    assert report.tracing_loss == pytest.approx(0.0, abs=1e-12)
    assert report.qfi == pytest.approx(2.0)


def test_vacuum_loss_bound_examples():
    model = independent_squeezers_model(0.5)
    assert vacuum_loss_bound(model, ModeSubset.of([0, 1])) == 0.0
    assert vacuum_loss_bound(model, ModeSubset.of([0])) == pytest.approx(0.5)


def test_vacuum_loss_bound_matches_vacuum_tracing_loss():
    rng = np.random.default_rng(41)
    layout = ModeLayout(3, 6)
    for _ in range(8):
        model = random_model(rng, 3)
        keep = ModeSubset.of(
            rng.choice(3, size=int(rng.integers(1, 3)), replace=False)
        )
        vac = StateVector.vacuum(layout)
        assert tracing_loss(model, vac, keep) == pytest.approx(
            vacuum_loss_bound(model, keep), abs=1e-12
        )


def test_vacuum_bound_property_random_states():
    rng = np.random.default_rng(42)
    layout = ModeLayout(3, 8)
    equalities = 0
    for _ in range(30):
        model = random_model(rng, 3)
        keep_size = int(rng.integers(1, 3))
        keep = ModeSubset.of(rng.choice(3, size=keep_size, replace=False))
        state = random_state(
            rng, layout, modes=list(keep.indices), terms=int(rng.integers(1, 4)),
            max_occ=4,
        )
        loss = tracing_loss(model, state, keep)
        bound = vacuum_loss_bound(model, keep)
        assert loss >= bound - 1e-12
        if abs(loss - bound) < 1e-9:
            equalities += 1
    assert equalities >= 1


def test_vacuum_bound_equality_for_parity_restricted_states():
    rng = np.random.default_rng(43)
    layout = ModeLayout(3, 8)
    for _ in range(10):
        model = random_model(rng, 3)
        keep = ModeSubset.of([0, 1])
        state = random_state(
            rng, layout, modes=[0, 1], terms=3, max_occ=4, parity=0
        )
        loss = tracing_loss(model, state, keep)
        assert loss == pytest.approx(vacuum_loss_bound(model, keep), abs=1e-9)


def test_monotonicity_reduced_below_pure():
    rng = np.random.default_rng(44)
    layout = ModeLayout(3, 8)
    for _ in range(10):
        model = random_model(rng, 3)
        keep = ModeSubset.of([int(rng.integers(0, 3))])
        state = random_state(rng, layout, modes=list(keep.indices), terms=2, max_occ=4)
        pure = qfi_pure(transform_first_order(model, state))
        report = qfi_reduced(model, state, keep)
        assert report.qfi <= pure + 1e-10


def test_superposition_penalty_under_beam_splitter():
    model = beam_splitter(0, 1, 2)
    layout = ModeLayout(2, 8)
    n = 2
    state = StateVector(
        layout,
        {(n, n + 1): 1 / math.sqrt(2), (n + 1, n): 1j / math.sqrt(2)},
    )
    pair = transform_first_order(model, state)
    penalty = overlap_penalty(pair)
    assert penalty == pytest.approx((n + 1) ** 2)
    assert penalty > 0.0


def test_qfi_fock_closed_examples():
    sms = single_mode_squeezer(0, 1)
    report = qfi_fock_closed(sms, 3, 0)
    assert report.qfi == pytest.approx(26.0)
    terms = dict(report.breakdown)
    assert terms["diagonal_squeezing"] == pytest.approx(24.0)
    assert terms["vacuum"] == pytest.approx(2.0)

    null = BogoliubovFirstOrder(np.ones(2), np.zeros((2, 2)), np.zeros((2, 2)))
    assert qfi_fock_closed(null, 5, 0).qfi == 0.0

    tms = two_mode_squeezer(0, 1, 2)
    report = qfi_two_mode_closed(tms, 2, 0, 0, 1)
    assert report.qfi == pytest.approx(12.0)


def test_qfi_two_mode_closed_examples():
    tms = two_mode_squeezer(0, 1, 2)
    for n in range(0, 4):
        report = qfi_two_mode_closed(tms, n, 0, n, 1)
        assert report.qfi == pytest.approx(8 * n * (n + 1) + 4)
        assert dict(report.breakdown)["vacuum"] == pytest.approx(4.0)
    bs = beam_splitter(0, 1, 2)
    for n in range(0, 4):
        for m in range(0, 4):
            report = qfi_two_mode_closed(bs, n, 0, m, 1)
            assert report.qfi == pytest.approx(8 * n * m + 4 * n + 4 * m)
    assert qfi_two_mode_closed(tms, 0, 0, 0, 1).qfi == pytest.approx(4.0)


def test_closed_forms_match_general_route():
    rng = np.random.default_rng(45)
    layout = ModeLayout(3, 9)
    for _ in range(4):
        model = rephased(random_model(rng, 3), rng.uniform(-np.pi, np.pi, 3))
        for n in (0, 1, 3):
            closed = qfi_fock_closed(model, n, 1).qfi
            occ = [0, n, 0]
            general = qfi_pure(_pair(model, layout, occ))
            assert closed == pytest.approx(general, abs=1e-10 * max(1, closed))
        for n, m in ((1, 2), (3, 0), (2, 2)):
            closed = qfi_two_mode_closed(model, n, 0, m, 2).qfi
            general = qfi_pure(_pair(model, layout, [n, 0, m]))
            assert closed == pytest.approx(general, abs=1e-10 * max(1, closed))


def test_mixed_matrix_element_keep_all_equals_pure():
    model = single_mode_squeezer(0, 1)
    layout = ModeLayout(1, 12)
    state = StateVector.from_occupation(layout, [2])
    gen = generator_from_model(model)
    ders = derivative_states(gen, state, keep=ModeSubset.of([0]))
    value = qfi_mixed_matrix_element(ders.rho2, state)
    assert value == pytest.approx(14.0, abs=1e-6)


def test_mixed_matrix_element_two_mode_squeezer():
    model = two_mode_squeezer(0, 1, 2)
    layout = ModeLayout(2, 12)
    state = StateVector.from_occupation(layout, [1, 1])
    keep = ModeSubset.of([0])
    ders = derivative_states(generator_from_model(model), state, keep=keep)
    psi0_k = StateVector.from_occupation(ModeLayout(1, 12), [1])
    value = qfi_mixed_matrix_element(ders.rho2, psi0_k)
    reduced = qfi_reduced(model, state, keep).qfi
    assert value == pytest.approx(reduced, abs=1e-5)


def test_mixed_matrix_element_zero_correction():
    layout = ModeLayout(1, 4)
    rho2 = DensityOperator(layout, np.zeros((5, 5)))
    assert qfi_mixed_matrix_element(rho2, StateVector.vacuum(layout)) == 0.0


def test_mixed_matrix_element_rejects_non_hermitian():
    layout = ModeLayout(1, 1)
    rho2 = DensityOperator(layout, np.zeros((2, 2)))
    skewed = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    object.__setattr__(rho2, "matrix", skewed)
    with pytest.raises(ValueError, match="Hermitian"):
        qfi_mixed_matrix_element(rho2, StateVector.vacuum(layout))


def test_first_order_density_identity():
    # <psi0_k| rho1 |psi0_k> vanishes for oracle-extracted corrections
    rng = np.random.default_rng(46)
    layout = ModeLayout(3, 8)
    from helpers import random_generator

    for _ in range(5):
        gen = random_generator(rng, 3, 0.4)
        keep = ModeSubset.of([0, 1])
        state = random_state(rng, layout, modes=[0, 1], terms=2, max_occ=2)
        ders = derivative_states(gen, state, keep=keep)
        sub_layout = ModeLayout(2, layout.cutoff)
        psi0_k = StateVector(
            sub_layout,
            {(occ[0], occ[1]): amp for occ, amp in state.items()},
            prune=0.0,
        )
        assert abs(ders.rho1.expectation(psi0_k)) < 1e-9


def test_vacuum_qfi_formula():
    model = two_mode_squeezer(0, 1, 2)
    assert vacuum_qfi(model) == pytest.approx(4.0)
    layout = ModeLayout(2, 4)
    assert qfi_pure(transform_first_order(model, StateVector.vacuum(layout))) == (
        pytest.approx(4.0)
    )


@pytest.mark.parametrize("modes,cutoff,terms", [(1, 8, 3), (2, 6, 8), (3, 5, 12), (4, 4, 20)])
def test_first_order_route_equals_term_loop_bit_for_bit(modes, cutoff, terms):
    # The vectorized route keeps the summation order and rounding of a
    # term-by-term loop, so CLI outputs stay byte-stable.
    rng = np.random.default_rng(100 + modes)
    keep = ModeSubset.of(range(modes - 1)) if modes > 1 else None
    for _ in range(5):
        model = rephased(random_model(rng, modes), rng.uniform(-np.pi, np.pi, modes))
        layout = ModeLayout(modes, cutoff)
        state = random_state(
            rng, layout, modes=list(keep.indices) if keep else None,
            terms=terms, max_occ=cutoff - 2,
        )
        pair = transform_first_order(model, state)
        psi0, psi1, loss = loop_first_order(model, state, keep)
        assert pair.psi0.items() == psi0
        assert pair.psi1.items() == psi1
        psi1_of = dict(psi1)
        overlap = 0.0 + 0.0j
        for occ, c0 in psi0:
            if occ in psi1_of:
                overlap += c0.conjugate() * psi1_of[occ]
        norm1 = math.fsum(abs(c) ** 2 for _, c in psi1)
        assert qfi_pure(pair) == max(0.0, 4.0 * (norm1 - abs(overlap) ** 2))
        if keep is not None:
            assert tracing_loss(model, state, keep) == loss
