"""Oracle and property tests for the linear-algebra / quantum primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from helpers import apply_to_state
from qescrow import qmath
from qescrow.qmath import (
    DensityMatrix,
    NotHermitian,
    NotUnitary,
    OrthogonalMeasurement,
    ReducedMismatch,
    StateStack,
    StateVector,
    Unitary,
    UnknownWire,
    WireMismatch,
    apply_unitary,
    fidelity,
    hermitian_eig,
    local_purification_transform,
    maximally_parallel_purifications,
    measure,
    optimal_distinguishing_measurement,
    overlap,
    partial_trace,
    purify,
    random_basis_measurement,
    random_density,
    random_state,
    random_unitary,
    state_preparation_unitary,
    trace_norm,
)

THETA = math.pi / 8
X = np.array([[0, 1], [1, 0]], dtype=complex)


def ket(*bits):
    v = np.array([1.0], dtype=complex)
    for b in bits:
        v = np.kron(v, np.array([1 - b, b], dtype=complex))
    return v


def pure_dm(vec, wires):
    vec = np.asarray(vec, dtype=complex)
    return DensityMatrix(wires, np.outer(vec, vec.conj()))


def phi_vec(alpha):
    return np.array([math.cos(alpha), math.sin(alpha)], dtype=complex)


# ---------------------------------------------------------------------------
# hermitian_eig


def eig2_oracle(m):
    """Characteristic-polynomial eigenvalues of a 2x2 Hermitian matrix."""
    tr = (m[0, 0] + m[1, 1]).real
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    disc = math.sqrt(max(tr * tr - 4 * det, 0.0))
    return (tr + disc) / 2, (tr - disc) / 2


def test_eig_diagonal():
    vals, vecs = hermitian_eig(np.diag([3.0, 1.0]))
    assert np.allclose(vals, [3.0, 1.0])
    assert abs(abs(vecs[0, 0]) - 1.0) < 1e-12 and abs(abs(vecs[1, 1]) - 1.0) < 1e-12


def test_eig_pauli_x_matches_characteristic_polynomial():
    vals, vecs = hermitian_eig(X)
    lo_hi = eig2_oracle(X)
    assert np.allclose(vals, lo_hi, atol=1e-12)
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    assert abs(abs(np.vdot(plus, vecs[:, 0])) - 1.0) < 1e-9
    assert abs(abs(np.vdot(minus, vecs[:, 1])) - 1.0) < 1e-9


def test_eig_pure_state_rank_one():
    rho = np.outer(phi_vec(THETA), phi_vec(THETA).conj())
    vals, _ = hermitian_eig(rho)
    assert np.allclose(vals, [1.0, 0.0], atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_oversized_input():
    with pytest.raises(qmath.QMathError):
        hermitian_eig(np.eye(512))


def test_eig_residuals_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = z + z.conj().T
        vals, vecs = hermitian_eig(h)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.max(np.abs(h @ vecs - vecs * vals)) < 1e-9
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(8))) < 1e-9


# ---------------------------------------------------------------------------
# trace_norm


def test_trace_norm_zero():
    assert trace_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_pure_difference_matches_eig_oracle():
    a = np.outer(phi_vec(-THETA), phi_vec(-THETA).conj())
    b = np.outer(phi_vec(THETA), phi_vec(THETA).conj())
    lo, hi = eig2_oracle(a - b)
    assert abs(trace_norm(a - b) - (abs(lo) + abs(hi))) < 1e-12
    # overlap cos(pi/4) gives 2 sqrt(1 - cos^2(pi/4)) = sqrt(2)
    assert abs(trace_norm(a - b) - math.sqrt(2)) < 1e-12


def test_trace_norm_escrow_bit_mixtures():
    from qescrow.protocols import escrow_bit_density

    r0 = escrow_bit_density(0, THETA)
    r1 = escrow_bit_density(1, THETA)
    # 2 cos(2 theta) at theta = pi/8 is sqrt(2)
    assert abs(trace_norm(r0.matrix - r1.matrix) - math.sqrt(2)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_trace_norm_axioms(seed):
    rng = np.random.default_rng(seed)
    z1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    z2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a, b = z1 + z1.conj().T, z2 + z2.conj().T
    assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9
    assert abs(trace_norm(np.kron(a, b)) - trace_norm(a) * trace_norm(b)) < 1e-8
    rho = random_density(("u", "v"), rng)
    assert abs(trace_norm(rho.matrix) - 1.0) < 1e-10


def test_pure_state_distance_law_200_pairs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = random_state(("q",), rng)
        b = random_state(("q",), rng)
        lhs = trace_norm(a.density().matrix - b.density().matrix)
        rhs = 2.0 * math.sqrt(max(1.0 - abs(overlap(a, b)) ** 2, 0.0))
        assert abs(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_self_is_one():
    rng = np.random.default_rng(3)
    rho = random_density(("q",), rng)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-10


def test_fidelity_orthogonal_pure_is_zero():
    assert abs(fidelity(pure_dm(ket(0), ("q",)), pure_dm(ket(1), ("q",)))) < 1e-12


def test_fidelity_pure_state_formula():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = random_state(("q",), rng)
        rho = random_density(("q",), rng)
        want = float((a.amplitudes.conj() @ rho.matrix @ a.amplitudes).real)
        assert abs(fidelity(a.density(), rho) - want) < 1e-9


def purification_maximization_oracle(r0, r1):
    """Independent fidelity estimate: maximize the squared overlap of spectral
    purifications over ancilla-side rotations of the second one."""

    def spectral(rho):
        vals, vecs = np.linalg.eigh(rho.matrix)
        amps = np.zeros(4, dtype=complex)
        for j in range(2):
            amps[2 * j: 2 * j + 2] = math.sqrt(max(vals[j], 0.0)) * vecs[:, j]
        return amps.reshape(2, 2)  # [ancilla, system]

    m0, m1 = spectral(r0), spectral(r1)

    def neg_overlap_sq(angles):
        t, p1, p2 = angles
        c, s = math.cos(t), math.sin(t)
        w = np.array([[c * np.exp(1j * p1), s * np.exp(1j * p2)],
                      [-s * np.exp(-1j * p2), c * np.exp(-1j * p1)]])  # full SU(2)
        return -abs(np.sum((m0.conj()) * (w @ m1))) ** 2

    best = 0.0
    for t0 in np.linspace(0, math.pi, 7):
        for t1 in np.linspace(0, 2 * math.pi, 7):
            res = minimize(neg_overlap_sq, [t0, t1, 0.0], method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-14, "maxfev": 2000})
            best = max(best, -res.fun)
    return best


def test_fidelity_escrow_mixtures_against_purification_oracle():
    from qescrow.protocols import escrow_bit_density

    r0 = escrow_bit_density(0, THETA)
    r1 = escrow_bit_density(1, THETA)
    f = fidelity(r0, r1)
    assert abs(f - math.sin(2 * THETA) ** 2) < 1e-12  # sin^2(pi/4) = 0.5
    assert abs(f - purification_maximization_oracle(r0, r1)) < 1e-6


def test_fidelity_oracle_on_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(3):
        r0 = random_density(("q",), rng)
        r1 = random_density(("q",), rng)
        assert abs(fidelity(r0, r1) - purification_maximization_oracle(r0, r1)) < 1e-6


# ---------------------------------------------------------------------------
# purify / maximally parallel purifications


def schmidt_coefficients(sv, cut):
    m = sv.amplitudes.reshape(2 ** cut, -1)
    return np.linalg.svd(m, compute_uv=False)


def test_purify_pure_state_needs_no_entanglement():
    psi = purify(pure_dm(ket(0), ("q",)))
    coeffs = schmidt_coefficients(psi, 1)
    assert abs(coeffs[0] - 1.0) < 1e-12 and abs(coeffs[1]) < 1e-12
    reduced = partial_trace(StateStack.of(psi), ("q",))[0]
    assert np.max(np.abs(reduced - np.diag([1.0, 0.0]))) < 1e-12


def test_purify_maximally_mixed():
    psi = purify(DensityMatrix(("q",), np.eye(2) / 2))
    coeffs = schmidt_coefficients(psi, 1)
    assert np.allclose(coeffs, [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_purify_schmidt_spectrum():
    rho = DensityMatrix(("q",), np.diag([math.cos(THETA) ** 2, math.sin(THETA) ** 2]))
    coeffs = schmidt_coefficients(purify(rho), 1)
    assert np.allclose(sorted(coeffs, reverse=True),
                       [math.cos(THETA), math.sin(THETA)], atol=1e-12)


def test_purify_round_trip_random():
    rng = np.random.default_rng(23)
    for _ in range(30):
        rho = random_density(("q",), rng)
        psi = purify(rho)
        back = partial_trace(StateStack.of(psi), ("q",))[0]
        assert np.max(np.abs(back - rho.matrix)) < 1e-9


def test_mpp_identical_pure():
    rho = pure_dm(ket(0), ("q",))
    a, b = maximally_parallel_purifications(rho, rho)
    assert abs(overlap(a, b) - 1.0) < 1e-10


def test_mpp_overlap_achieves_fidelity():
    from qescrow.protocols import escrow_bit_density

    r0 = escrow_bit_density(0, THETA)
    r1 = escrow_bit_density(1, THETA)
    a, b = maximally_parallel_purifications(r0, r1)
    ov = overlap(a, b)
    assert abs(ov.imag) < 1e-10 and ov.real >= -1e-12
    assert abs(abs(ov) ** 2 - fidelity(r0, r1)) < 1e-8
    assert np.max(np.abs(partial_trace(StateStack.of(a), ("dep",))[0] - r0.matrix)) < 1e-9
    assert np.max(np.abs(partial_trace(StateStack.of(b), ("dep",))[0] - r1.matrix)) < 1e-9


def test_mpp_pure_vs_mixed():
    r0 = pure_dm(ket(0), ("q",))
    r1 = DensityMatrix(("q",), np.eye(2) / 2)
    a, b = maximally_parallel_purifications(r0, r1)
    # pure-state rule: f = <phi0| r1 |phi0> = 1/2
    assert abs(abs(overlap(a, b)) ** 2 - 0.5) < 1e-10


def test_mpp_random_pairs():
    rng = np.random.default_rng(29)
    for _ in range(25):
        r0 = random_density(("q",), rng)
        r1 = random_density(("q",), rng)
        a, b = maximally_parallel_purifications(r0, r1)
        ov = overlap(a, b)
        assert ov.real >= -1e-10 and abs(ov.imag) < 1e-8
        assert abs(abs(ov) ** 2 - fidelity(r0, r1)) < 1e-8


# ---------------------------------------------------------------------------
# local_purification_transform


def bell(wires):
    return StateVector(wires, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))


def test_local_transform_identity_case():
    psi = bell(("a", "b"))
    u = local_purification_transform(psi, psi, ("a",))
    out = apply_to_state(psi, u, ("a",))
    assert abs(abs(overlap(out, psi)) - 1.0) < 1e-8


def test_local_transform_realization_swap():
    psi = bell(("a", "b"))
    target = StateVector(("a", "b"), np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2))
    u = local_purification_transform(psi, target, ("a",))
    out = apply_to_state(psi, u, ("a",))
    assert abs(abs(overlap(out, target)) - 1.0) < 1e-8


def test_local_transform_hadamard_representation():
    # (|00>+|11>)/sqrt(2) rewritten with the system side rotated into the
    # +/- basis; the holder of "a" can undo it locally.
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    psi = bell(("a", "b"))
    target = apply_to_state(psi, h, ("a",))
    u = local_purification_transform(psi, target, ("a",))
    out = apply_to_state(psi, u, ("a",))
    assert abs(abs(overlap(out, target)) - 1.0) < 1e-8
    assert np.max(np.abs(u - h)) < 1e-8  # unique on a full-rank reduced state


def test_local_transform_random_rank2():
    rng = np.random.default_rng(31)
    for _ in range(25):
        psi = random_state(("a", "b"), rng)
        u_local = random_unitary(2, rng)
        target = apply_to_state(psi, u_local, ("a",))
        u = local_purification_transform(psi, target, ("a",))
        out = apply_to_state(psi, u, ("a",))
        assert abs(abs(overlap(out, target)) - 1.0) < 1e-8
        assert qmath.is_unitary(u)


def test_local_transform_multiwire_local_side():
    rng = np.random.default_rng(37)
    psi = random_state(("a0", "a1", "b"), rng)
    target = apply_to_state(psi, random_unitary(4, rng), ("a0", "a1"))
    u = local_purification_transform(psi, target, ("a0", "a1"))
    out = apply_to_state(psi, u, ("a0", "a1"))
    assert abs(abs(overlap(out, target)) - 1.0) < 1e-8


def test_local_transform_rejects_mismatched_reduction():
    psi = bell(("a", "b"))
    prod = StateVector(("a", "b"), ket(0, 0))
    with pytest.raises(ReducedMismatch):
        local_purification_transform(psi, prod, ("a",))


# ---------------------------------------------------------------------------
# partial_trace / apply_unitary / measure


def test_partial_trace_product():
    psi = StateVector(("a", "b"), ket(0, 1))
    reduced = partial_trace(StateStack.of(psi), ("a",))[0]
    assert np.max(np.abs(reduced - np.diag([1.0, 0.0]))) < 1e-12


def test_partial_trace_bell_keep_second():
    rho = partial_trace(StateStack.of(bell(("a", "b"))), ("b",))[0]
    assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-12


def test_partial_trace_density_matrix_input():
    rng = np.random.default_rng(41)
    psi = random_state(("a", "b", "c"), rng)
    from_state = partial_trace(StateStack.of(psi), ("c", "a"))[0]   # kept in the source order
    # plain numpy: trace b out of |psi><psi| as a (a, b, c, a', b', c') tensor
    rho = psi.density().matrix.reshape((2,) * 6)
    from_dm = np.einsum("abcdbf->acdf", rho).reshape(4, 4)
    assert np.max(np.abs(from_state - from_dm)) < 1e-10


def test_partial_trace_unknown_wire():
    with pytest.raises(UnknownWire):
        partial_trace(StateStack.of(bell(("a", "b"))), ("z",))


def test_apply_unitary_identity_and_x():
    psi = StateVector(("a", "b"), ket(0, 0))
    assert abs(abs(overlap(apply_to_state(psi, np.eye(4), ("a", "b")), psi)) - 1) < 1e-12
    flipped = apply_to_state(psi, X, ("a",))
    assert np.allclose(flipped.amplitudes, ket(1, 0))


def test_apply_unitary_rejects_bad_operator():
    psi = StateStack.of(StateVector(("a",), ket(0)))
    with pytest.raises(NotUnitary):
        Unitary(np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(WireMismatch):
        apply_unitary(psi, Unitary(np.eye(4)), ("a",))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_apply_unitary_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(("a", "b", "c"), rng)
    out = apply_to_state(psi, random_unitary(4, rng), ("b", "a"))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


def test_measure_deterministic():
    rows, outcomes, probs, post = measure(qmath.StateStack.of(StateVector(("q",), ket(0))),
                                          OrthogonalMeasurement.computational(1), ("q",))
    assert rows.tolist() == [0] and outcomes.tolist() == [0]  # the outcome projecting on |0>
    assert abs(probs[0] - 1.0) < 1e-12
    assert np.allclose(post.amplitudes[0], ket(0))


def test_measure_phi_pi8_probabilities():
    _, outcomes, probs, _ = measure(qmath.StateStack.of(StateVector(("q",), phi_vec(THETA))),
                                    OrthogonalMeasurement.computational(1), ("q",))
    probs = dict(zip(outcomes.tolist(), probs.tolist()))  # outcome i projects on |i>
    assert abs(probs[0] - 0.8535533905932737) < 1e-12
    assert abs(probs[1] - 0.1464466094067262) < 1e-12


def test_measure_escrow_state_in_own_basis():
    from qescrow.protocols import bx_angle, escrow_basis, phi_vec

    for b in (0, 1):
        for x in (0, 1):
            basis = escrow_basis(x, THETA)
            state = StateVector(("q",), phi_vec(bx_angle(b, x, THETA)))
            _, outcomes, probs, _ = measure(qmath.StateStack.of(state), basis, ("q",))
            assert len(probs) == 1  # the wrong branch is exactly pruned
            assert abs(probs[0] - 1.0) < 1e-12 and outcomes[0] == b  # the index is the bit


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_measure_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(("a", "b"), rng)
    _, _, probs, post = measure(qmath.StateStack.of(psi), random_basis_measurement(2, rng),
                                ("b",))
    assert abs(sum(probs) - 1.0) < 1e-10
    for amps in post.amplitudes:
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-10


def test_locality_average_post_measurement_state():
    rng = np.random.default_rng(43)
    for _ in range(10):
        psi = random_state(("a", "b", "c"), rng)
        meas = random_basis_measurement(2, rng)
        rho_b = partial_trace(StateStack.of(psi), ("b", "c"))[0]
        avg = np.zeros((4, 4), dtype=complex)
        _, _, probs, post = measure(qmath.StateStack.of(psi), meas, ("a",))
        for p, reduced in zip(probs, partial_trace(post, ("b", "c"))):
            avg += p * reduced
        assert np.max(np.abs(avg - rho_b)) < 1e-9


def projector_branches(amps, n, on_axes, basis):
    """Plain-numpy reference: P_i psi / ||P_i psi|| with P_i = v_i v_i^dag (x) I, None if pruned."""
    rest = [a for a in range(n) if a not in on_axes]
    order = list(on_axes) + rest
    psi = np.transpose(amps.reshape((2,) * n), order).reshape(-1)
    out = []
    for i in range(basis.shape[1]):
        proj = np.kron(np.outer(basis[:, i], basis[:, i].conj()), np.eye(2 ** len(rest)))
        piece = proj @ psi
        prob = float(np.vdot(piece, piece).real)
        if prob < qmath.BRANCH_PRUNE:
            out.append(None)
            continue
        back = np.transpose((piece / math.sqrt(prob)).reshape((2,) * n), np.argsort(order))
        out.append((prob, back.reshape(-1)))
    return out


def _random_amplitudes(n, sparse, rng):
    amps = random_state(tuple(f"w{i}" for i in range(n)), rng).amplitudes.copy()
    if sparse:
        amps[rng.random(2 ** n) < 0.5] = 0.0
        amps[int(rng.integers(2 ** n))] = 1.0
        amps /= np.linalg.norm(amps)
    return amps


def _random_basis(k, sparse, rng):
    if sparse:
        return np.eye(2 ** k, dtype=complex)[:, rng.permutation(2 ** k)]
    return random_unitary(2 ** k, rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.booleans(), st.integers(0, 5),
       st.booleans())
def test_measure_matches_projector_formula(seed, n, sparse, rows, per_row):
    # Sparse states in a permuted computational basis make some branches
    # exactly empty, so the pruning decisions are compared too.  A stack of
    # `rows` states is measured in one call, in one shared basis or in one
    # basis per row (taken from a stack, as the executor takes them, so a
    # stack of no rows has a per-row basis too).  Without post-states the
    # call gives the same rows, outcomes and probabilities, bit for bit.
    rng = np.random.default_rng(seed)
    wires = tuple(f"w{i}" for i in range(n))
    k = int(rng.integers(1, n + 1))
    on_axes = [int(a) for a in rng.permutation(n)[:k]]
    on = tuple(wires[a] for a in on_axes)
    amps = np.array([_random_amplitudes(n, sparse, rng) for _ in range(rows)])
    amps = amps.reshape(rows, 2 ** n)
    bases = [_random_basis(k, sparse, rng) for _ in range(max(rows, 1) if per_row else 1)]
    meas = (OrthogonalMeasurement(np.stack(bases)).take(range(rows)) if per_row
            else OrthogonalMeasurement(bases[0]))
    stack = qmath.StateStack(wires, amps)
    got = measure(stack, meas, on)
    *bare, none = measure(stack, meas, on, post=False)
    assert none is None
    assert all(a.tobytes() == b.tobytes() and a.dtype == b.dtype for a, b in zip(got[:3], bare))
    want = [(r, i, w) for r in range(rows)
            for i, w in enumerate(projector_branches(amps[r], n, on_axes, bases[r % len(bases)]))
            if w]
    got_rows, got_outcomes, got_probs, post = got
    assert post.wires == wires
    assert [(int(r), int(i)) for r, i in zip(got_rows, got_outcomes)] == \
        [(r, i) for r, i, _ in want]
    for prob, state, (_, _, (ref_prob, ref_amps)) in zip(got_probs, post.amplitudes, want):
        assert abs(prob - ref_prob) <= 1e-12
        assert np.max(np.abs(state - ref_amps)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(0, 5), st.booleans())
def test_apply_unitary_matches_kron_operator(seed, n, rows, per_row):
    # Reference: the full operator U (x) I on the wires in `on` + rest order,
    # conjugated back to the state's order, built with np.kron for each row.
    # Per-row gates are taken from a table, as the executor takes them, so a
    # stack of no rows has per-row gates too.
    rng = np.random.default_rng(seed)
    wires = tuple(f"w{i}" for i in range(n))
    k = int(rng.integers(1, n + 1))
    on_axes = [int(a) for a in rng.permutation(n)[:k]]
    rest = [a for a in range(n) if a not in on_axes]
    amps = np.array([_random_amplitudes(n, False, rng) for _ in range(rows)]).reshape(rows, 2 ** n)
    gates = np.array([random_unitary(2 ** k, rng) for _ in range(max(rows, 1) if per_row else 1)])
    got = apply_unitary(qmath.StateStack(wires, amps),
                        Unitary(gates).take(range(rows)) if per_row else Unitary(gates[0]),
                        tuple(wires[a] for a in on_axes))
    assert got.wires == wires and got.amplitudes.shape == (rows, 2 ** n)
    order = on_axes + rest
    for r in range(rows):
        op = np.kron(gates[r % len(gates)], np.eye(2 ** len(rest)))
        psi = np.transpose(amps[r].reshape((2,) * n), order).reshape(-1)
        ref = np.transpose((op @ psi).reshape((2,) * n), np.argsort(order)).reshape(-1)
        assert np.max(np.abs(got.amplitudes[r] - ref)) <= 1e-12


def test_kernels_pass_an_empty_stack():
    empty = qmath.StateStack(("a", "b"), np.zeros((0, 4), dtype=complex))
    assert apply_unitary(empty, Unitary(X[None]).take([]), ("b",)).amplitudes.shape == (0, 4)
    assert apply_unitary(empty, Unitary(X), ("a",)).amplitudes.shape == (0, 4)
    rows, outcomes, probs, post = measure(empty, OrthogonalMeasurement.computational(1), ("a",))
    assert rows.size == outcomes.size == probs.size == 0 and post.amplitudes.shape == (0, 4)
    per_row = OrthogonalMeasurement(np.eye(2)[None]).take([])
    assert measure(empty, per_row, ("b",))[3].amplitudes.shape == (0, 4)
    assert partial_trace(empty, ("b",)).shape == (0, 2, 2)
    probs, post = qmath.renormalize(empty)
    assert probs.shape == (0,) and post.amplitudes.shape == (0, 4)


@pytest.mark.parametrize("rows", (0, 1, 4))
def test_renormalize_is_the_measurement_of_a_definite_bit(rows):
    rng = np.random.default_rng(rows)
    wires = ("a", "b")
    scale = 1 + rng.uniform(-1e-11, 1e-11, rows)
    amps = np.array([random_state(wires, rng).amplitudes for _ in range(rows)]
                    ).reshape(rows, 4) * scale[:, None]
    stack = qmath.StateStack(wires, amps)
    bits = rng.integers(0, 2, rows)
    probs, post = qmath.renormalize(stack)
    # each row with a wire m in |bits[r]> between a and b: np.kron puts m's axis there
    with_m = np.array([np.kron(amps[r].reshape(2, 2), np.eye(2)[:, bits[r]:bits[r] + 1])
                       for r in range(rows)]).reshape(rows, 8)
    parents, outcomes, want_probs, want_post = qmath.measure(
        qmath.StateStack(("a", "m", "b"), with_m), OrthogonalMeasurement.computational(1), ("m",))
    assert parents.tolist() == list(range(rows)) and outcomes.tolist() == bits.tolist()
    assert post.wires == wires
    assert np.allclose(probs, want_probs, rtol=0, atol=1e-15)
    # drop the measured wire m, which sits between a and b
    kept = want_post.amplitudes.reshape(rows, 2, 2, 2)[np.arange(rows), :, bits]
    assert np.allclose(post.amplitudes, kept.reshape(rows, 4), rtol=0, atol=1e-15)
    assert np.allclose(np.linalg.norm(post.amplitudes, axis=1), 1, rtol=0, atol=1e-15)


def test_stacked_gates_are_checked_in_one_call():
    stack = qmath.StateStack(("q",), np.array([ket(0), ket(1)]))
    with pytest.raises(NotUnitary):
        Unitary(np.array([X, [[1, 1], [0, 1]]], dtype=complex))
    with pytest.raises(WireMismatch):
        apply_unitary(stack, Unitary(np.array([X])), ("q",))
    assert qmath.is_unitary(np.array([X, np.eye(2)]))
    assert not qmath.is_unitary(np.array([X, 2 * np.eye(2)]))
    assert qmath.is_unitary(np.zeros((0, 2, 2)))


def test_is_unitary_keeps_its_verdict_on_edge_inputs():
    # M^H M must be within 1e-9 of I in every entry: an error of 1e-10
    # passes, one of 1e-8 or a NaN fails, in a single matrix or a stack
    u = qmath.random_unitary(4, np.random.default_rng(8))
    nan = u.copy()
    nan[1, 2] = np.nan
    cases = [(u, True), (np.stack([u, u.conj().T, np.eye(4)]), True),
             (u * (1 + 1e-8), False), (u * (1 + 1e-10), True), (nan, False),
             (np.ones((2, 3)), False), (np.zeros((0, 4, 4)), True), (np.eye(3)[0], False)]
    for m, want in cases:
        assert qmath.is_unitary(m) is want
    assert not qmath.is_unitary(np.stack([u, u * (1 + 1e-8)]))


def test_stacked_bases_are_checked_once_and_taken_per_row():
    with pytest.raises(qmath.QMathError):
        OrthogonalMeasurement(np.array([np.eye(2), [[1, 1], [0, 1]]], dtype=complex))
    table = OrthogonalMeasurement(np.array([np.eye(2), X], dtype=complex))
    stack = qmath.StateStack(("q",), np.array([ket(0), ket(0), ket(1)]))
    _, outcomes, _, _ = measure(stack, table.take([0, 1, 1]), ("q",))
    assert outcomes.tolist() == [0, 1, 0]   # in the basis X, |0> is outcome 1
    with pytest.raises(WireMismatch):
        measure(stack, table.take([0, 1]), ("q",))


def test_a_measurement_is_a_unitary_whose_take_and_stack_check_nothing(monkeypatch):
    assert issubclass(OrthogonalMeasurement, Unitary)
    calls = []

    def counting(m):
        calls.append(m)
        return unitary(m)

    unitary = qmath.is_unitary
    monkeypatch.setattr(qmath, "is_unitary", counting)
    for cls in (Unitary, OrthogonalMeasurement):
        table = cls(np.array([np.eye(2), X], dtype=complex))
        assert len(calls) == 1   # the construction is checked, in one call
        taken = table.take([1, 0, 1])
        stacked = cls.stack([table, cls(X)])
        assert type(taken) is cls and type(stacked) is cls
        assert np.array_equal(taken.matrix, [X, np.eye(2), X])
        assert np.array_equal(stacked.matrix, [np.eye(2), X, X])
        assert len(calls) == 2   # one more construction, and no check in take or stack
        calls.clear()
    assert np.array_equal(taken.adjoint, taken.matrix.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("kernel", ["apply_unitary", "measure"])
def test_kernels_reject_repeated_wires(kernel):
    psi = StateStack.of(StateVector(("a", "b"), ket(0, 0)))
    with pytest.raises(WireMismatch):
        if kernel == "apply_unitary":
            apply_unitary(psi, Unitary(np.eye(4)), ("a", "a"))
        else:
            measure(psi, OrthogonalMeasurement.computational(2), ("b", "b"))


# ---------------------------------------------------------------------------
# optimal distinguishing measurement


def test_optimal_measurement_equal_states():
    rng = np.random.default_rng(47)
    rho = random_density(("q",), rng)
    _, l1 = optimal_distinguishing_measurement(rho, rho)
    assert abs(l1) < 1e-10


def test_optimal_measurement_escrow_mixtures():
    from qescrow.protocols import escrow_bit_density

    r0 = escrow_bit_density(0, THETA)
    r1 = escrow_bit_density(1, THETA)
    meas, l1 = optimal_distinguishing_measurement(r0, r1)
    assert abs(l1 - math.sqrt(2)) < 1e-12
    # guessing edge 1/2 + L1/4 equals cos^2(pi/8)
    assert abs(0.5 + l1 / 4 - math.cos(math.pi / 8) ** 2) < 1e-12


def test_optimal_measurement_achieves_trace_norm_and_dominates():
    rng = np.random.default_rng(53)
    for wires in (("q",), ("q",), ("q", "r")):
        for _ in range(10):
            r0 = random_density(wires, rng)
            r1 = random_density(wires, rng)
            meas, l1 = optimal_distinguishing_measurement(r0, r1)
            assert abs(l1 - trace_norm(r0.matrix - r1.matrix)) < 1e-9
            for _ in range(100):
                other = qmath.measurement_l1_distance(
                    r0, r1, random_basis_measurement(2 ** len(wires), rng))
                assert other <= l1 + 1e-8


# ---------------------------------------------------------------------------
# construction invariants


def test_state_vector_rejects_bad_norm():
    with pytest.raises(qmath.QMathError):
        StateVector(("q",), np.array([1.0, 1.0]))


@pytest.mark.parametrize("amps", [np.array([[np.nan, 1.0]], dtype=complex),
                                  np.array([[1.0 + 1e-8, 0.0]], dtype=complex),
                                  np.array([[1.0, 0.0], [np.nan, 1.0]], dtype=complex),
                                  np.array([[0.0, 1.0], [1.0 + 1e-8, 0.0]], dtype=complex),
                                  np.array([[np.inf, 0.0], [1.0, 0.0]], dtype=complex)])
def test_derived_state_keeps_the_norm_check(amps):
    with pytest.raises(qmath.QMathError):
        qmath._derived_state(("q",), amps)
    if not np.isfinite(amps).all():
        # a measurement that builds no post-states still rejects a row that is not finite
        rows = qmath._trusted(("q",), amps)
        with pytest.raises(qmath.QMathError, match="not finite"), np.errstate(invalid="ignore"):
            measure(rows, OrthogonalMeasurement.computational(1), ("q",), post=False)


@pytest.mark.parametrize("rows, norm", [([[1.0, 0.0], [np.nan, 1.0], [2.0, 0.0]], "nan"),
                                        ([[0.0, 1.0], [0.0, 3.0], [2.0, 0.0]], "3.0")])
def test_norm_check_names_the_first_failing_row(rows, norm):
    with pytest.raises(qmath.QMathError, match=f"state norm {norm} != 1"):
        qmath._derived_state(("q",), np.array(rows, dtype=complex))


@pytest.mark.parametrize("bad, norm", [(np.nan, "nan"), (3.0, "3.0")])
def test_norm_check_names_the_first_failing_row_of_a_long_stack(bad, norm):
    # a faster check of long stacks must still fail NaN and name the first bad row
    rows = 1000
    amps = np.zeros((rows, 2), dtype=complex)
    amps[:, 0] = 1.0
    qmath._derived_state(("q",), amps.copy())
    amps[rows // 2, 0] = bad
    amps[rows - 1, 0] = 2.0
    with pytest.raises(qmath.QMathError, match=f"state norm {norm} != 1"):
        qmath._derived_state(("q",), amps)


@pytest.mark.parametrize("bad", [np.nan, 0.0])
def test_renormalize_rejects_a_row_whose_norm_is_nan_or_zero(bad):
    amps = np.array([[0.6, 0.8], [bad, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(qmath.QMathError, match="state norm nan != 1"), np.errstate(invalid="ignore"):
        qmath.renormalize(qmath._trusted(("q",), amps))


def test_a_derived_density_matrix_checks_its_trace():
    rho = np.diag([0.25, 0.75]).astype(complex)
    d = qmath._derived_density(("q",), rho)
    assert type(d) is DensityMatrix and d.wires == ("q",) and d.matrix is rho
    assert not d.matrix.flags.writeable
    for trace in (0.5, np.nan, np.inf):
        with pytest.raises(qmath.QMathError, match="trace"):
            qmath._derived_density(("q",), np.diag([0.25, trace - 0.25]).astype(complex))


@pytest.mark.parametrize("basis", [np.array([[1.0, 1.0], [0.0, 1.0]]),
                                   np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6]]),
                                   np.eye(2)[:, :1]])
def test_measurement_rejects_non_orthonormal_basis(basis):
    with pytest.raises(qmath.QMathError):
        OrthogonalMeasurement(basis)


def test_density_matrix_rejects_negative():
    with pytest.raises(qmath.QMathError):
        DensityMatrix(("q",), np.diag([1.5, -0.5]))




def test_state_preparation_unitary():
    rng = np.random.default_rng(59)
    for wires in (("a",), ("a", "b"), ("a", "b", "c")):   # dims 2, 4 and 8
        for v in (random_state(wires, rng).amplitudes, 3 * ket(*[1] * len(wires))):
            u = state_preparation_unitary(v)
            assert qmath.is_unitary(u)
            assert np.abs(u.conj().T @ u - np.eye(len(v))).max() < 1e-14
            assert np.array_equal(u[:, 0], v / np.linalg.norm(v))   # exactly the normalized input


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(61)
    for dim in (2, 4, 8):
        assert qmath.is_unitary(random_unitary(dim, rng))
