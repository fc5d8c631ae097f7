"""Shared test utilities: dense references and hand-coded golden expansions.

The dense ``expm`` references live here, not in the package: the dense
propagator that the oracle's Taylor sweep is checked against, and the
classical 2M x 2M mode exponential that recovers a generator's
Bogoliubov coefficients, from which the model builders are checked.

The golden first-order expansions below are written out term by term,
independently of the package's sparse generator machinery, so the two
constructions cross-check each other.  The sign convention is the one
pinned by the exact propagator exp(-i theta H): with trivial phases and
beta1_kk = 1 the vacuum acquires -(1/sqrt 2)|2> at first order.  They
are the paper's states, so they carry the free evolution U0 that the
package's route leaves out; ``free_evolved`` puts it back.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import types

import numpy as np
import scipy.linalg
import scipy.sparse

import bogofisher
from bogofisher import (
    BogoliubovFirstOrder,
    GeneratorK,
    GeneratorSpec,
    ModeLayout,
    StateVector,
    oracle,
)
from bogofisher.fock import _place_values


def run_python(args: list[str], extra_env: dict[str, str] | None = None) -> tuple[int, str, str]:
    """Run a fresh interpreter on this checkout's package; (exit code, stdout, stderr).

    ``extra_env`` entries are set in the child's environment.
    """
    src = os.path.dirname(os.path.dirname(bogofisher.__file__))
    env = dict(os.environ, **(extra_env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
    return done.returncode, done.stdout, done.stderr


def dense_ladders(mode_count: int, cutoff: int) -> list[scipy.sparse.csr_matrix]:
    """Truncated annihilation operators as Kronecker products of single-mode ladders."""
    dim = cutoff + 1
    single = scipy.sparse.diags(np.sqrt(np.arange(1.0, dim)), 1, format="csr")
    eye = scipy.sparse.identity(dim, format="csr")
    ops = []
    for m in range(mode_count):
        mats = [eye] * mode_count
        mats[m] = single
        out = mats[0]
        for x in mats[1:]:
            out = scipy.sparse.kron(out, x, format="csr")
        ops.append(out.astype(complex))
    return ops


def dense_generator_matrix(gen: GeneratorK, layout: ModeLayout) -> np.ndarray:
    """Dense realization of a GeneratorK on the truncated basis."""
    ladders = dense_ladders(layout.mode_count, layout.cutoff)
    dim = layout.basis_size
    K = scipy.sparse.csr_matrix((dim, dim), dtype=complex)
    for m in range(gen.mode_count):
        for n in range(gen.mode_count):
            if gen.number[m, n] != 0:
                K += gen.number[m, n] * ladders[m].conj().T @ ladders[n]
            c = gen.pair_create[m, n]
            if c != 0:
                K += 0.5 * c * ladders[m].conj().T @ ladders[n].conj().T
                K -= 0.5 * np.conj(c) * ladders[m] @ ladders[n]
    return K.toarray()


def dense_hamiltonian_matrix(gen: GeneratorSpec, layout: ModeLayout) -> np.ndarray:
    """Dense H from normal-ordered products of the truncated ladders (= P H P)."""
    ladders = dense_ladders(layout.mode_count, layout.cutoff)
    dim = layout.basis_size
    H = scipy.sparse.csr_matrix((dim, dim), dtype=complex)
    for m in range(gen.mode_count):
        for n in range(gen.mode_count):
            H += gen.h[m, n] * ladders[m].conj().T @ ladders[n]
            create = 0.5 * gen.g[m, n] * ladders[m].conj().T @ ladders[n].conj().T
            H += create + create.conj().T
    return H.toarray()


def box_sector(layout: ModeLayout) -> tuple[int, tuple[int, ...]]:
    """(N_max, parity classes) of the sector that holds every state of ``layout``."""
    return layout.mode_count * layout.cutoff, (0, 1)


def coo_hamiltonian(
    gen: GeneratorSpec, layout: ModeLayout, sector: tuple[int, tuple[int, ...]] | None = None
) -> types.SimpleNamespace:
    """A = -iH on a sector, its shift and 1-norms by a COO build and scipy arithmetic.

    ``sector`` is an (N_max, parity classes) key of ``oracle._sector``, the
    whole layout when omitted.  H is assembled term by term as COO on the
    sector's indices, with the pair creations past N_max left out, and
    each entry's terms are added in COO order before scipy converts it to
    CSR; A is ``-1j * H``, mu comes from ``A.trace()``, A - mu I from a
    scipy subtraction and both 1-norms from column sums.  The oracle's
    ``_Operator`` must reproduce ``norm``, ``mu``, ``shifted_norm`` and
    every nonzero entry of ``shifted`` byte for byte
    (``tests/test_oracle.py``); ``matrix`` is A, which the oracle never
    builds.
    """
    n_max, parity = sector or box_sector(layout)
    ranks = oracle._sector(layout, n_max, parity)
    cutoff = layout.cutoff
    occ = layout.occupations_of(ranks).T
    pair_room = occ.sum(axis=0) + 2 <= n_max
    stride = _place_values(cutoff, layout.mode_count)

    def index(src, shift):
        return np.searchsorted(ranks, ranks[src] + shift)

    rows, cols, vals = [], [], []
    for m, n in zip(*np.nonzero(gen.h)):
        if m == n:
            src = np.flatnonzero(occ[n])
            rows.append(src)
            amplitude = occ[n, src]
        else:
            src = np.flatnonzero((occ[n] > 0) & (occ[m] < cutoff))
            rows.append(index(src, stride[m] - stride[n]))
            amplitude = np.sqrt(occ[n, src] * (occ[m, src] + 1.0))
        cols.append(src)
        vals.append(gen.h[m, n] * amplitude)
    for p, q in zip(*np.nonzero(np.triu(gen.g))):
        if p == q:
            src = np.flatnonzero((occ[p] + 2 <= cutoff) & pair_room)
            amplitude = 0.5 * np.sqrt((occ[p, src] + 1.0) * (occ[p, src] + 2.0))
        else:
            src = np.flatnonzero((occ[p] < cutoff) & (occ[q] < cutoff) & pair_room)
            amplitude = np.sqrt((occ[p, src] + 1.0) * (occ[q, src] + 1.0))
        target = index(src, stride[p] + stride[q])
        value = gen.g[p, q] * amplitude
        rows += [target, src]
        cols += [src, target]
        vals += [value, value.conj()]
    entries: dict[tuple[int, int], complex] = {}
    for key, value in zip(
        zip(*(np.concatenate([np.zeros(0, np.intp), *part]).tolist() for part in (rows, cols))),
        np.concatenate([np.zeros(0, np.complex128), *vals]).tolist(),
    ):
        entries[key] = entries[key] + value if key in entries else value
    dim = ranks.size
    H = scipy.sparse.coo_matrix(
        (
            np.array(list(entries.values()), dtype=np.complex128),
            np.array(list(entries.keys()), dtype=np.intp).reshape(-1, 2).T,
        ),
        shape=(dim, dim),
    ).tocsr()
    A = -1j * H
    mu = A.trace() / float(dim)
    shifted = A - mu * scipy.sparse.eye(dim, dim, dtype=A.dtype).asformat(A.format)

    def one_norm(matrix) -> float:
        return float(abs(matrix).sum(axis=0).max())

    return types.SimpleNamespace(
        matrix=A, norm=one_norm(A), mu=mu, shifted=shifted, shifted_norm=one_norm(shifted)
    )


def dense_propagator(
    gen: GeneratorSpec,
    theta: float,
    layout: ModeLayout,
    sector: tuple[int, tuple[int, ...]] | None = None,
) -> np.ndarray:
    """Dense U(theta) = exp(-i theta H) from the COO reference's sparse -iH on a sector."""
    return scipy.linalg.expm(theta * coo_hamiltonian(gen, layout, sector).matrix.toarray())


def extract_bogoliubov(gen: GeneratorSpec, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact alpha(theta), beta(theta) from the classical exponential.

    Exponentiates the 2M x 2M coefficient matrix of the Heisenberg mode
    equations, free of any Fock truncation.
    """
    h, g = gen.h, gen.g
    transfer = np.block([[-1j * h, -1j * g], [1j * g.conj(), 1j * h.conj()]])
    E = scipy.linalg.expm(theta * transfer)
    M = gen.mode_count
    return E[:M, :M].conj(), -E[:M, M:].conj()


def extract_first_order(
    gen: GeneratorSpec, dtheta: float = 1e-5, G: np.ndarray | None = None
) -> BogoliubovFirstOrder:
    """First-order coefficient model of U0 exp(-i theta H) by central differencing.

    U0 = prod_n G_n^(n_n) is the free evolution, the identity when ``G`` is
    omitted.  The coefficients of exp(-i theta H) alone, alpha1' and beta1',
    give the model (G, alpha1' diag(G), beta1' diag(conj G)).
    """
    alpha_p, beta_p = extract_bogoliubov(gen, dtheta)
    alpha_m, beta_m = extract_bogoliubov(gen, -dtheta)
    alpha1 = (alpha_p - alpha_m) / (2.0 * dtheta)
    beta1 = (beta_p - beta_m) / (2.0 * dtheta)
    G = np.ones(gen.mode_count) if G is None else np.asarray(G, dtype=np.complex128)
    return BogoliubovFirstOrder(G, alpha1 * G, beta1 * G.conj())


def random_generator(rng: np.random.Generator, modes: int, scale: float) -> GeneratorSpec:
    h_raw = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    g_raw = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    h = scale * 0.5 * (h_raw + h_raw.conj().T)
    g = scale * 0.5 * (g_raw + g_raw.T)
    return GeneratorSpec(h, g)


def random_model(rng: np.random.Generator, modes: int, scale: float = 0.4) -> BogoliubovFirstOrder:
    """Random validated model with trivial phases, via symplectic extraction."""
    return extract_first_order(random_generator(rng, modes, scale))


def rephased(model: BogoliubovFirstOrder, chis: np.ndarray) -> BogoliubovFirstOrder:
    """Consistently re-phased model: G_m -> e^{i chi_m} G_m with row phases."""
    phases = np.exp(1j * np.asarray(chis))
    return BogoliubovFirstOrder(
        phases * model.G,
        phases[:, None] * model.alpha1,
        phases[:, None] * model.beta1,
    )


def random_state(
    rng: np.random.Generator,
    layout: ModeLayout,
    modes: list[int] | None = None,
    terms: int = 3,
    max_occ: int | None = None,
    parity: int | None = None,
) -> StateVector:
    """Random normalized superposition supported on the given modes.

    With ``parity`` set, every component has that total-occupation parity,
    which excludes superpositions differing by a single excitation.
    """
    modes = list(range(layout.mode_count)) if modes is None else list(modes)
    max_occ = layout.cutoff - 2 if max_occ is None else max_occ
    amplitudes: dict[tuple[int, ...], complex] = {}
    guard = 0
    while len(amplitudes) < terms:
        guard += 1
        if guard > 200 * terms:
            break
        occ = [0] * layout.mode_count
        for m in modes:
            occ[m] = int(rng.integers(0, max_occ + 1))
        if parity is not None and sum(occ) % 2 != parity:
            continue
        amplitudes[tuple(occ)] = complex(rng.normal(), rng.normal())
    state = StateVector(layout, amplitudes, prune=0.0)
    return state.normalized()


def free_evolved(model: BogoliubovFirstOrder, state: StateVector) -> StateVector:
    """U0 applied to a state: each term times prod_n G_n^(n_n)."""
    phase = np.prod(np.power(model.G, state.occupations()), axis=1)
    return StateVector._from_ranks(state.layout, state.ranks, state.amplitudes * phase)


def _put(amp: dict, occ: tuple[int, ...], value: complex) -> None:
    if value != 0:
        amp[occ] = amp.get(occ, 0.0) + value


def golden_vacuum(model: BogoliubovFirstOrder, layout: ModeLayout):
    """Hand expansion of the transformed vacuum: psi0 and psi1."""
    M = model.mode_count
    G = model.G
    beta = model.beta1
    psi0 = StateVector.vacuum(layout)
    amp: dict[tuple[int, ...], complex] = {}
    for p in range(M):
        for q in range(p, M):
            b = np.conj(beta[p, q])
            if b == 0:
                continue
            if p == q:
                occ = [0] * M
                occ[p] = 2
                _put(amp, tuple(occ), -G[p] * b / math.sqrt(2.0))
            else:
                occ = [0] * M
                occ[p] = 1
                occ[q] = 1
                _put(amp, tuple(occ), -G[p] * b)
    return psi0, StateVector(layout, amp)


def golden_single_mode(model: BogoliubovFirstOrder, n: int, k: int, layout: ModeLayout):
    """Hand expansion for the input |n_k> with all other modes in vacuum."""
    M = model.mode_count
    G, alpha, beta = model.G, model.alpha1, model.beta1
    gk = G[k]

    def base(nk: int, **extra: int) -> tuple[int, ...]:
        occ = [0] * M
        occ[k] = nk
        for key, value in extra.items():
            occ[int(key)] = value
        return tuple(occ)

    psi0 = StateVector(layout, {base(n): gk**n})
    amp: dict[tuple[int, ...], complex] = {}
    if n >= 2:
        _put(amp, base(n - 2), 0.5 * math.sqrt(n * (n - 1)) * gk ** (n - 1) * beta[k, k])
    _put(amp, base(n), n * gk ** (n + 1) * np.conj(alpha[k, k]))
    _put(
        amp,
        base(n + 2),
        -0.5 * math.sqrt((n + 1) * (n + 2)) * gk ** (n + 1) * np.conj(beta[k, k]),
    )
    for p in range(M):
        if p == k:
            continue
        if n >= 1:
            _put(
                amp,
                base(n - 1, **{str(p): 1}),
                math.sqrt(n) * gk**n * G[p] * np.conj(alpha[p, k]),
            )
        _put(
            amp,
            base(n + 1, **{str(p): 1}),
            -math.sqrt(n + 1) * gk**n * G[p] * np.conj(beta[p, k]),
        )
        _put(
            amp,
            base(n, **{str(p): 2}),
            -gk**n * G[p] * np.conj(beta[p, p]) / math.sqrt(2.0),
        )
        for q in range(p + 1, M):
            if q == k:
                continue
            _put(
                amp,
                base(n, **{str(p): 1, str(q): 1}),
                -gk**n * G[p] * np.conj(beta[p, q]),
            )
    return psi0, StateVector(layout, amp)


def golden_two_mode(
    model: BogoliubovFirstOrder,
    n: int,
    k: int,
    m: int,
    kprime: int,
    layout: ModeLayout,
):
    """Hand expansion for the input |n_k>|m_k'> with other modes in vacuum."""
    M = model.mode_count
    G, alpha, beta = model.G, model.alpha1, model.beta1
    gk, gq = G[k], G[kprime]

    def base(nk: int, mk: int, **extra: int) -> tuple[int, ...]:
        occ = [0] * M
        occ[k] = nk
        occ[kprime] = mk
        for key, value in extra.items():
            occ[int(key)] = value
        return tuple(occ)

    phase0 = gk**n * gq**m
    psi0 = StateVector(layout, {base(n, m): phase0})
    amp: dict[tuple[int, ...], complex] = {}
    _put(
        amp,
        base(n, m),
        n * gk ** (n + 1) * gq**m * np.conj(alpha[k, k])
        + m * gk**n * gq ** (m + 1) * np.conj(alpha[kprime, kprime]),
    )
    if n >= 2:
        _put(amp, base(n - 2, m), 0.5 * math.sqrt(n * (n - 1)) * gk ** (n - 1) * gq**m * beta[k, k])
    _put(
        amp,
        base(n + 2, m),
        -0.5 * math.sqrt((n + 1) * (n + 2)) * gk ** (n + 1) * gq**m * np.conj(beta[k, k]),
    )
    if m >= 2:
        _put(
            amp,
            base(n, m - 2),
            0.5 * math.sqrt(m * (m - 1)) * gk**n * gq ** (m - 1) * beta[kprime, kprime],
        )
    _put(
        amp,
        base(n, m + 2),
        -0.5 * math.sqrt((m + 1) * (m + 2)) * gk**n * gq ** (m + 1) * np.conj(beta[kprime, kprime]),
    )
    if m >= 1:
        _put(
            amp,
            base(n + 1, m - 1),
            math.sqrt(m * (n + 1)) * gk ** (n + 1) * gq**m * np.conj(alpha[k, kprime]),
        )
    if n >= 1:
        _put(
            amp,
            base(n - 1, m + 1),
            math.sqrt(n * (m + 1)) * gk**n * gq ** (m + 1) * np.conj(alpha[kprime, k]),
        )
    if n >= 1 and m >= 1:
        _put(
            amp,
            base(n - 1, m - 1),
            math.sqrt(n * m) * gk ** (n - 1) * gq**m * beta[k, kprime],
        )
    _put(
        amp,
        base(n + 1, m + 1),
        -math.sqrt((n + 1) * (m + 1)) * gk ** (n + 1) * gq**m * np.conj(beta[k, kprime]),
    )
    for p in range(M):
        if p in (k, kprime):
            continue
        if n >= 1:
            _put(
                amp,
                base(n - 1, m, **{str(p): 1}),
                math.sqrt(n) * phase0 * G[p] * np.conj(alpha[p, k]),
            )
        if m >= 1:
            _put(
                amp,
                base(n, m - 1, **{str(p): 1}),
                math.sqrt(m) * phase0 * G[p] * np.conj(alpha[p, kprime]),
            )
        _put(
            amp,
            base(n + 1, m, **{str(p): 1}),
            -math.sqrt(n + 1) * phase0 * G[p] * np.conj(beta[p, k]),
        )
        _put(
            amp,
            base(n, m + 1, **{str(p): 1}),
            -math.sqrt(m + 1) * phase0 * G[p] * np.conj(beta[p, kprime]),
        )
        _put(
            amp,
            base(n, m, **{str(p): 2}),
            -phase0 * G[p] * np.conj(beta[p, p]) / math.sqrt(2.0),
        )
        for q in range(p + 1, M):
            if q in (k, kprime):
                continue
            _put(
                amp,
                base(n, m, **{str(p): 1, str(q): 1}),
                -phase0 * G[p] * np.conj(beta[p, q]),
            )
    return psi0, StateVector(layout, amp)


def state_distance(a: StateVector, b: StateVector) -> float:
    return a.add(b.scaled(-1.0)).norm()


def loop_first_order(model: BogoliubovFirstOrder, state: StateVector, keep=None):
    """Term-by-term loop reference for the first-order route.

    Returns the psi0 and psi1 terms as sorted ``(occupation, amplitude)``
    lists and, with ``keep``, the tracing loss.  Each amplitude is built
    with scalar arithmetic and summed in lexicographic term order, then
    generator-entry order, which is the rounding the vectorized route keeps.
    """
    from bogofisher import build_generator
    from bogofisher.fock import PRUNE_EPS

    gen = build_generator(model)
    modes, cutoff = gen.mode_count, state.layout.cutoff
    k_psi: dict[tuple[int, ...], complex] = {}

    def accumulate(occ, value):
        if max(occ) <= cutoff:
            k_psi[occ] = k_psi.get(occ, 0.0) + value

    def shifted(occ, *changes):
        new = list(occ)
        for mode, delta in changes:
            new[mode] += delta
        return tuple(new)

    for occ, c in state.items():
        for m in range(modes):
            for n in range(modes):
                coeff = gen.number[m, n]
                if coeff == 0 or occ[n] == 0:
                    continue
                if m == n:
                    accumulate(occ, c * coeff * occ[n])
                else:
                    factor = math.sqrt(occ[n] * (occ[m] + 1))
                    accumulate(shifted(occ, (n, -1), (m, 1)), c * coeff * factor)
        for p in range(modes):
            for q in range(p, modes):
                coeff = gen.pair_create[p, q]
                if coeff == 0:
                    continue
                if p == q:
                    up = c * coeff * 0.5 * math.sqrt((occ[p] + 1) * (occ[p] + 2))
                    accumulate(shifted(occ, (p, 2)), up)
                    if occ[p] >= 2:
                        down = -c * coeff.conjugate() * 0.5 * math.sqrt(occ[p] * (occ[p] - 1))
                        accumulate(shifted(occ, (p, -2)), down)
                else:
                    up = c * coeff * math.sqrt((occ[p] + 1) * (occ[q] + 1))
                    accumulate(shifted(occ, (p, 1), (q, 1)), up)
                    if occ[p] >= 1 and occ[q] >= 1:
                        down = -c * coeff.conjugate() * math.sqrt(occ[p] * occ[q])
                        accumulate(shifted(occ, (p, -1), (q, -1)), down)

    psi0 = state.items()
    psi1 = sorted((occ, complex(c)) for occ, c in k_psi.items() if abs(complex(c)) > PRUNE_EPS)
    if keep is None:
        return psi0, psi1, None
    kept = keep.indices
    comp = keep.complement(modes)
    (reference,) = {tuple(occ[m] for m in comp) for occ, _ in psi0}
    psi0_k = {tuple(occ[m] for m in kept): amp for occ, amp in psi0}
    projected: dict[tuple[int, ...], complex] = {}
    for occ, amp in psi1:
        weight = psi0_k.get(tuple(occ[m] for m in kept))
        if weight is not None:
            part = tuple(occ[m] for m in comp)
            projected[part] = projected.get(part, 0.0) + weight.conjugate() * amp
    loss = 4.0 * math.fsum(abs(v) ** 2 for part, v in projected.items() if part != reference)
    return psi0, psi1, loss


def dual_bound(model: BogoliubovFirstOrder, support, target: float, amplitudes) -> float:
    """An upper bound on the full-system first-order QFI over ``support`` at <N> = target.

    Q = M^dag M and H = i P0^dag M come from ``transform_first_order`` of
    each support state, so the QFI of amplitudes c is 4(c^dag Q c - t^2)
    with t = c^dag H c.  For every real mu and nu and every feasible c
    (c^dag c = 1, c^dag E c = 0 with E = diag(N - target)),
    c^dag Q c - t^2 <= mu^2 + c^dag (Q - 2 mu H - nu E) c, so
    U = 4(mu^2 + lambda_max(Q - 2 mu H - nu E)) bounds every c.  The bound
    is taken at mu = t of ``amplitudes`` and at the nu fitted by least
    squares to their stationarity condition (Q - 2tH)c = nu E c + lambda c;
    it equals their QFI when they are a global optimum.
    """
    from bogofisher import transform_first_order
    from bogofisher.perturb import CUTOFF_HEADROOM

    occ = np.array(support, dtype=np.int64, ndmin=2)
    layout = ModeLayout(occ.shape[1], int(occ.max()) + CUTOFF_HEADROOM)
    pairs = [transform_first_order(model, StateVector.from_occupation(layout, o)) for o in occ]
    p0 = np.column_stack([pair.psi0.to_dense() for pair in pairs])
    m1 = np.column_stack([pair.psi1.to_dense() for pair in pairs])
    Q = m1.conj().T @ m1
    H = 1j * (p0.conj().T @ m1)
    assert np.max(np.abs(H - H.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(H)))
    H = 0.5 * (H + H.conj().T)
    E = np.diag(occ.sum(axis=1) - float(target))
    c = np.asarray(amplitudes, dtype=complex)
    t = float(np.vdot(c, H @ c).real)
    lhs = np.column_stack([E @ c, c])
    (nu, _), *_ = np.linalg.lstsq(lhs, (Q - 2.0 * t * H) @ c, rcond=None)
    return 4.0 * (t * t + float(np.linalg.eigvalsh(Q - 2.0 * t * H - nu.real * E)[-1]))
