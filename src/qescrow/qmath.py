"""Small dense complex linear algebra and quantum-information primitives.

Pure states live on named qubit wires (wire 0 is the most significant bit of
the amplitude index).  Everything here is exact up to floating point: unitary
application, orthogonal measurement with branch enumeration, partial trace,
trace norm, fidelity, purification, and the eigenbasis measurement that
achieves the trace-norm distinguishing bound.

The kernels (``apply_unitary``, ``measure``, ``renormalize``,
``partial_trace``) take one input form each: a ``StateStack``, rows of
states on one wire tuple with amplitudes of shape (rows, 2^wires), processed
in one numpy call per operation.  A single ``StateVector`` enters a kernel
as the one-row ``StateStack.of(state)``.  An operator is a ``Unitary``,
checked once when it is built; an ``OrthogonalMeasurement`` is the
``Unitary`` whose columns are its outcome basis.  ``renormalize`` is the
measurement of a wire that holds a definite bit.

A value derived from checked ones is checked only for what its derivation
can break: rows that a gate, a measurement or ``renormalize`` makes for
their norms, and a reduced density matrix (Hermitian and PSD by
construction) for a finite trace of 1.

All values are immutable after construction and every operation is a pure
function, so concurrent use needs no synchronization.  Randomness is always
drawn from an explicitly passed ``numpy.random.Generator``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Tolerances, fixed once.  State-level invariants are checked at 1e-10,
# operator-level ones at 1e-9; measurement branches below 1e-14 are dropped.
ATOL_STATE = 1e-10
ATOL_OP = 1e-9
BRANCH_PRUNE = 1e-14


class QMathError(Exception):
    pass


class NotHermitian(QMathError):
    pass


class NotUnitary(QMathError):
    pass


class WireMismatch(QMathError):
    pass


class UnknownWire(QMathError):
    pass


class ReducedMismatch(QMathError):
    pass


def is_hermitian(m: np.ndarray, tol: float = ATOL_OP) -> bool:
    m = np.asarray(m, dtype=complex)
    return m.shape[0] == m.shape[1] and bool(np.max(np.abs(m - m.conj().T)) <= tol)


def is_unitary(m: np.ndarray) -> bool:
    """Whether a matrix, or each of a stack over the last two axes, has M^H M within 1e-9 of I."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    n = m.shape[-1]
    gram = m.conj().swapaxes(-1, -2) @ m
    gram.reshape(*gram.shape[:-2], n * n)[..., ::n + 1] -= 1.0   # M^H M - I in place, on a view
    return bool(np.abs(gram).max(initial=0.0) <= ATOL_OP)  # NaN fails


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _check_norms(amps: np.ndarray) -> None:
    """Every row of a (rows, dim) amplitude array has norm 1 within 1e-10."""
    for squared in np.square(amps.view(float)).sum(axis=1).tolist():
        if not abs(math.sqrt(squared) - 1.0) <= ATOL_STATE:  # written so that NaN fails too
            raise QMathError(f"state norm {math.sqrt(squared)} != 1")


def _check_wires(wires) -> tuple[str, ...]:
    """A value's wires as a tuple: a tuple or list of distinct non-empty ``str``.

    A bare ``str`` is not split into one wire per character.
    """
    if not (isinstance(wires, (tuple, list)) and all(isinstance(w, str) and w for w in wires)):
        raise WireMismatch(f"wires {wires!r} are not a tuple or list of non-empty str")
    if len(set(wires)) != len(wires):
        raise WireMismatch(f"duplicate wire labels: {wires}")
    return tuple(wires)


def _check_state(state: StateVector | StateStack, ndim: int) -> None:
    """Freeze a state's or a stack's fields and check them once.

    The wires pass ``_check_wires``, the amplitudes have ``ndim`` axes and
    2^wires entries on the last, every amplitude is finite, and every row
    has norm 1 within 1e-10.
    """
    object.__setattr__(state, "wires", _check_wires(state.wires))
    amps = _frozen(state.amplitudes)
    object.__setattr__(state, "amplitudes", amps)
    if amps.ndim != ndim or amps.shape[-1] != 2 ** len(state.wires):
        raise WireMismatch(f"{len(state.wires)} wires need {ndim}-D amplitudes of "
                           f"{2 ** len(state.wires)} per row, got {amps.shape}")
    if not np.isfinite(amps.view(float)).all():
        raise QMathError("non-finite amplitude")
    _check_norms(amps.reshape(-1, amps.shape[-1]))


@dataclass(frozen=True)
class StateVector:
    """Unit-norm pure state on an ordered tuple of named qubit wires."""

    wires: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_state(self, 1)

    @property
    def n_wires(self) -> int:
        return len(self.wires)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def reorder(self, wires: Sequence[str]) -> "StateVector":
        """Permute the wire order (same wire set) without changing the state."""
        wires = tuple(wires)
        if set(wires) != set(self.wires):
            raise WireMismatch(f"cannot reorder {self.wires} to {wires}")
        if wires == self.wires:
            return self
        tensor = self.amplitudes.reshape((2,) * self.n_wires)
        perm = [self.wires.index(w) for w in wires]
        return StateVector(wires, tensor.transpose(perm).reshape(-1))

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.wires, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class StateStack:
    """Rows of unit-norm pure states on one ordered tuple of named qubit wires.

    ``amplitudes`` has shape (rows, 2^wires); row r holds the amplitudes a
    ``StateVector`` on ``wires`` would hold.  A stack may have zero rows.
    """

    wires: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_state(self, 2)

    @classmethod
    def of(cls, state: StateVector) -> "StateStack":
        """The one-row stack holding a validated state: how a single state enters a kernel."""
        return _trusted(state.wires, state.amplitudes[None])

    def take(self, rows: Sequence[int]) -> "StateStack":
        """The stack of the given rows, in the given order (a row may repeat)."""
        return _trusted(self.wires, self.amplitudes[np.asarray(rows, dtype=np.intp)])


def _trusted(wires: tuple[str, ...], amps: np.ndarray) -> StateStack:
    """A stack built without validation from amplitudes already checked, which it freezes."""
    amps.setflags(write=False)
    obj = object.__new__(StateStack)
    object.__setattr__(obj, "wires", wires)
    object.__setattr__(obj, "amplitudes", amps)
    return obj


def _derived_state(wires: tuple[str, ...], amps: np.ndarray) -> StateStack:
    """A stack a kernel computed from validated ones, from (rows, 2^wires) amplitudes.

    The wires, the shape and the finiteness carry over from the input, so
    only the norm of each row is checked; a NaN amplitude makes its row's
    norm NaN and fails.  ``amps`` must be a fresh array that nothing else
    writes.
    """
    _check_norms(amps)
    return _trusted(wires, amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, trace-1 matrix on an ordered tuple of named qubit wires."""

    wires: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "wires", _check_wires(self.wires))
        m = _frozen(self.matrix)
        object.__setattr__(self, "matrix", m)
        dim = 2 ** len(self.wires)
        if m.shape != (dim, dim):
            raise WireMismatch(f"expected {dim}x{dim} matrix, got {m.shape}")
        if not is_hermitian(m, ATOL_STATE * dim):
            raise NotHermitian("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > ATOL_STATE * dim:
            raise QMathError(f"trace {np.trace(m)} != 1")
        if float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))) < -1e-9:
            raise QMathError("density matrix has a negative eigenvalue")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _derived_density(wires: tuple[str, ...], m: np.ndarray) -> DensityMatrix:
    """A fresh matrix reduced from checked rows, so Hermitian and PSD: checks a finite trace 1."""
    if not abs(np.trace(m).real - 1.0) <= ATOL_STATE * len(m):  # written so that NaN fails too
        raise QMathError(f"trace {np.trace(m)} != 1")
    m.setflags(write=False)
    out = object.__new__(DensityMatrix)
    object.__setattr__(out, "wires", wires)
    object.__setattr__(out, "matrix", m)
    return out


@dataclass(frozen=True)
class Unitary:
    """A nonempty square matrix, or a stack of them, that passed the 1e-9
    unitarity check when it was constructed.

    A stack is either one matrix per row of a ``StateStack`` or a table that
    ``take`` indexes into such a per-row stack.  This is the one operator
    form the kernels take, so none of them checks an operator again.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.ndim not in (2, 3) or not m.size or not is_unitary(m):
            raise NotUnitary(f"operator of shape {m.shape} fails the 1e-9 unitarity check")

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def take(self, rows: Sequence[int]) -> "Unitary":
        """The given matrices of a stack, in order (one may repeat), as this class; unchecked."""
        return _unchecked(type(self), self.matrix[np.asarray(rows, dtype=np.intp)])

    @classmethod
    def stack(cls, parts: Sequence["Unitary"]) -> "Unitary":
        """The matrices of checked operators, each one matrix or a table, as one table in order.

        The table has the class that ``stack`` is called on.  Every part was
        checked when it was built, so the table is not checked again.
        """
        d = parts[0].dim
        return _unchecked(cls, np.concatenate([part.matrix.reshape(-1, d, d) for part in parts]))


def _unchecked(cls: type, matrix: np.ndarray) -> Unitary:
    """An operator of class ``cls`` built without the check from matrices already checked."""
    matrix.setflags(write=False)
    out = object.__new__(cls)
    object.__setattr__(out, "matrix", matrix)
    return out


class OrthogonalMeasurement(Unitary):
    """Measurement in an orthonormal basis: outcome i projects onto column i of ``matrix``.

    A measurement is the ``Unitary`` whose columns are its outcome basis, so
    one basis or a stack of them is checked once, by V^dag V = I within
    1e-9, when it is constructed, and ``take`` and ``stack`` work as they do
    for any operator.
    """

    @functools.cached_property
    def adjoint(self) -> np.ndarray:
        """V^dag, for ``measure``."""
        return self.matrix.conj().swapaxes(-1, -2)

    @classmethod
    def from_basis(cls, vectors: Sequence[np.ndarray]) -> "OrthogonalMeasurement":
        return cls(np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for v in vectors]))

    @classmethod
    def computational(cls, n_wires: int) -> "OrthogonalMeasurement":
        return cls(np.eye(2 ** n_wires))


# ---------------------------------------------------------------------------
# Core operations


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns of a Hermitian matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] > 256:
        raise QMathError(f"dimension {m.shape[0]} exceeds the supported 256")
    if not is_hermitian(m):
        raise NotHermitian("matrix is not Hermitian within 1e-9")
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input this is the sum of |eigenvalues|."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise QMathError(f"trace norm needs a square matrix, not shape {a.shape}")
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def sqrtm_psd(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix (tiny negative eigenvalues clamped)."""
    vals, vecs = np.linalg.eigh(np.asarray(m, dtype=complex))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def fidelity(r0: DensityMatrix, r1: DensityMatrix) -> float:
    """Maximal squared overlap of purifications: (sum of singular values of sqrt(r0) sqrt(r1))^2.

    A numerically pure input short-circuits to the exact rule <phi|other|phi>,
    which avoids the square-root noise floor of near-zero eigenvalues.
    """
    if r0.wires != r1.wires:
        raise WireMismatch(f"fidelity of states on {r0.wires} vs {r1.wires}")
    for a, b in ((r0, r1), (r1, r0)):
        vals, vecs = np.linalg.eigh(a.matrix)
        if vals[-1] >= 1.0 - 1e-12:
            v = vecs[:, -1]
            return float(min(max((v.conj() @ b.matrix @ v).real, 0.0), 1.0))
    s = np.linalg.svd(sqrtm_psd(r0.matrix) @ sqrtm_psd(r1.matrix), compute_uv=False)
    return float(min(max(np.sum(s) ** 2, 0.0), 1.0))


def fresh_wires(prefix: str, count: int, avoid: Sequence[str]) -> tuple[str, ...]:
    avoid = set(avoid)
    out, i = [], 0
    while len(out) < count:
        w = f"{prefix}{i}"
        if w not in avoid:
            out.append(w)
        i += 1
    return tuple(out)


def purify(r: DensityMatrix) -> StateVector:
    """Spectral purification sum_i sqrt(w_i) |i>|v_i> on (fresh ancilla wires, r.wires)."""
    vals, vecs = hermitian_eig(r.matrix)
    anc = fresh_wires("p", len(r.wires), r.wires)
    amps = (np.sqrt(np.clip(vals, 0.0, None))[:, None] * vecs.T).reshape(-1)
    amps = amps / np.linalg.norm(amps)
    return StateVector(anc + r.wires, amps)


def maximally_parallel_purifications(r0: DensityMatrix, r1: DensityMatrix
                                     ) -> tuple[StateVector, StateVector]:
    """Purifications of r0 and r1 whose overlap is real, nonnegative, and achieves the fidelity.

    Built from the singular decomposition of sqrt(r0) sqrt(r1): with that SVD
    U S V^dag, the ancilla-side alignment (V U^dag)^T makes <psi0|psi1> equal
    the sum of singular values, i.e. the square root of the fidelity.  Both
    outputs share one fresh ancilla register, listed before the system wires.
    """
    if r0.wires != r1.wires:
        raise WireMismatch("purification targets live on different wires")
    s0, s1 = sqrtm_psd(r0.matrix), sqrtm_psd(r1.matrix)
    u, _, vh = np.linalg.svd(s0 @ s1)
    w1 = (vh.conj().T @ u.conj().T).T  # unitary aligning the second ancilla
    anc = fresh_wires("p", len(r0.wires), r0.wires)
    wires = anc + r0.wires

    def build(sqrt_r, w):
        amps = (w @ sqrt_r.T).reshape(-1)  # amps[e, s] = sum_j W[e,j] sqrt_r[s,j]
        return StateVector(wires, amps / np.linalg.norm(amps))

    return build(s0, np.eye(r0.dim)), build(s1, w1)


@functools.lru_cache(maxsize=1024)
def _wire_plan(wires: tuple[str, ...], front: tuple[str, ...]
               ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(tensor shape of one row, permutation moving ``front`` to the leading axes, its inverse).

    Axis 0 of both permutations is the row axis of a stack and stays in place.
    """
    if len(set(front)) != len(front):
        raise WireMismatch(f"repeated wires in {front}")
    idx = []
    for w in front:
        if w not in wires:
            raise UnknownWire(w)
        idx.append(wires.index(w))
    perm = tuple(idx + [i for i in range(len(wires)) if i not in idx])
    inv = tuple(int(i) for i in np.argsort(perm))
    return ((2,) * len(wires), (0,) + tuple(p + 1 for p in perm),
            (0,) + tuple(p + 1 for p in inv))


def _blocks(states: StateStack, front: tuple[str, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Rows as (rows, 2^len(front), rest) blocks with ``front`` leading; and the inverse plan."""
    shape, perm, inv = _wire_plan(states.wires, front)
    amps = states.amplitudes
    n, d = len(amps), 2 ** len(front)
    block = amps.reshape((n,) + shape).transpose(perm).reshape(n, d, amps.shape[1] // d)
    return block, inv


def _unblock(block: np.ndarray, wires: tuple[str, ...], inv: tuple[int, ...]) -> np.ndarray:
    n = block.shape[0]
    return block.reshape((n,) + (2,) * len(wires)).transpose(inv).reshape(n, 2 ** len(wires))


def apply_unitary(states: StateStack, u: Unitary, on: Sequence[str]) -> StateStack:
    """Apply a unitary to a subset of wires of every row; the wire order is unchanged.

    ``u`` holds one matrix for all rows or a stack with one matrix per row.
    It was checked when it was constructed, so it is not checked here.
    """
    on = tuple(on)
    if u.dim != 2 ** len(on):
        raise WireMismatch(f"unitary shape {u.matrix.shape} does not act on {len(on)} wires")
    block, inv = _blocks(states, on)
    if u.matrix.ndim == 3 and u.matrix.shape[0] != block.shape[0]:
        raise WireMismatch(f"{u.matrix.shape[0]} gates for {block.shape[0]} rows")
    return _derived_state(states.wires, _unblock(u.matrix @ block, states.wires, inv))


def measure(states: StateStack, m: OrthogonalMeasurement, on: Sequence[str], post: bool = True
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, StateStack | None]:
    """Enumerate measurement branches of every row.

    ``m`` holds one basis for all rows or a stack with one basis per row.
    Branches below the 1e-14 pruning threshold are omitted and each surviving
    post-state is divided by the square root of its probability, so it has
    norm 1 up to rounding and a later reading of a definite bit need not
    renormalize it.  With V the measurement basis, every outcome's amplitude
    comes from one V^dag @ block product: outcome i leaves v_i (x) (V^dag
    block)_i on the measured wires.

    The result is ``(rows, outcomes, probs, post)``: for every surviving
    branch, row by row and each row's outcomes in index order, the row index,
    the outcome's index (its basis column), its probability, and its
    post-state as the matching row of the stack ``post``.  With ``post``
    false no post-state is built and the last entry is None, for a
    measurement after which nothing reads the state; the first three
    entries are the same, and a row that is not finite still raises.
    """
    on = tuple(on)
    d = 2 ** len(on)
    block, inv = _blocks(states, on)
    if m.dim != d:
        raise WireMismatch(f"measurement dim {m.dim} does not act on {len(on)} wires")
    if m.matrix.ndim == 3 and len(m.matrix) != block.shape[0]:
        raise WireMismatch(f"{len(m.matrix)} measurements for {block.shape[0]} rows")
    coeffs = m.adjoint @ block
    vectors = m.matrix.swapaxes(-1, -2)  # row i (of each row's matrix) is v_i
    probs = np.einsum("rij,rij->ri", coeffs.conj(), coeffs).real
    keep = ~(probs < BRANCH_PRUNE)  # a NaN row is kept, and fails the norm check below
    rows, outcomes = keep.nonzero()
    p = probs[keep]
    if not post:
        if not math.isfinite(p.sum()):   # the post-states' norm check would fail
            raise QMathError("outcome probability is not finite")
        return rows, outcomes, p, None
    kept = coeffs[keep] / np.sqrt(p)[:, None]
    vecs = vectors[outcomes] if vectors.ndim == 2 else vectors[keep]
    post = _derived_state(states.wires,
                          _unblock(vecs[:, :, None] * kept[:, None, :], states.wires, inv))
    return rows, outcomes, p, post


def renormalize(states: StateStack) -> tuple[np.ndarray, StateStack]:
    """Each row's squared norm, and the rows divided by their norm.

    This is ``measure`` of a wire that holds a definite bit in every row: the
    one outcome's probability, computed as ``measure`` computes it, and its
    post-state.  The norms are 1 up to rounding, and dividing the rounding
    out keeps a run's later probabilities what that measurement would give.
    Only a gate leaves rounding to divide out: rows that a ``measure`` or a
    ``renormalize`` has just divided by their norm, and copies of such rows,
    are already normalized, and a caller that knows it may skip this call.
    """
    amps = states.amplitudes[:, None]
    probs = np.einsum("rij,rij->ri", amps.conj(), amps).real[:, 0]
    return probs, _derived_state(states.wires, states.amplitudes / np.sqrt(probs)[:, None])


def partial_trace(states: StateStack, keep: Sequence[str]) -> np.ndarray:
    """Reduce every row onto `keep` (in the source wire order), tracing out the rest.

    The result is the (rows, 2^k, 2^k) array of the rows' reduced matrices.
    """
    keep = tuple(keep)
    for w in keep:
        if w not in states.wires:
            raise UnknownWire(w)
    block, _ = _blocks(states, tuple(w for w in states.wires if w in set(keep)))
    return block @ block.conj().transpose(0, 2, 1)


def overlap(a: StateVector, b: StateVector) -> complex:
    if set(a.wires) != set(b.wires):
        raise WireMismatch("overlap of states on different wire sets")
    return complex(np.vdot(a.amplitudes, b.reorder(a.wires).amplitudes))


def complete_basis(columns: np.ndarray, dim: int) -> np.ndarray:
    """Deterministically extend orthonormal columns to a full orthonormal basis."""
    cols = [columns[:, i] for i in range(columns.shape[1])]
    for i in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        for _ in range(2):  # reorthogonalize: one Gram-Schmidt pass is not enough
            for c in cols:
                v = v - c * np.vdot(c, v)
        n = np.linalg.norm(v)
        if n > 1e-7:
            cols.append(v / n)
        if len(cols) == dim:
            break
    return np.column_stack(cols)


def state_preparation_unitary(vec: np.ndarray) -> np.ndarray:
    """A unitary whose first column is the given vector, normalized (deterministic completion).

    The other columns are those of the Householder reflection that takes |0>
    to the vector times the phase that makes its first entry -|u_0| (so the
    reflection's normal has first entry 1 + |u_0| and nothing cancels): they
    are orthonormal and orthogonal to the vector.
    """
    u = np.asarray(vec, dtype=complex).reshape(-1)
    u = u / np.linalg.norm(u)
    size = abs(u[0])
    normal = u * (u[0].conjugate() / size if size else 1.0)   # |0> - normal is the target
    normal[0] += 1.0
    out = np.eye(len(u), dtype=complex) - np.outer(normal, normal.conj()) / (1.0 + size)
    out[:, 0] = u
    return out


def local_purification_transform(
    psi: StateVector, target: StateVector, local_wires: Sequence[str]
) -> np.ndarray:
    """Unitary on `local_wires` with (U x I) psi = target, exactly (phase included).

    Exists precisely when the two states have the same reduced density matrix
    on the complement of `local_wires`; raises ReducedMismatch otherwise.  The
    construction maps the singular basis of psi's local-vs-rest amplitude
    matrix onto the corresponding vectors of the target and completes the
    isometry deterministically, which sidesteps any eigenvector matching in
    degenerate spectra.
    """
    local = tuple(local_wires)
    if set(psi.wires) != set(target.wires):
        raise WireMismatch("states live on different wire sets")
    rest = tuple(w for w in psi.wires if w not in set(local))
    if len(rest) + len(local) != len(psi.wires):
        raise UnknownWire(f"{local} is not a subset of {psi.wires}")
    red_a = partial_trace(StateStack.of(psi), rest)[0]
    red_b = partial_trace(StateStack.of(target.reorder(psi.wires)), rest)[0]
    if np.max(np.abs(red_a - red_b)) > 1e-8:
        raise ReducedMismatch("reduced states on the non-local wires differ")

    order = local + rest
    m_psi = psi.reorder(order).amplitudes.reshape(2 ** len(local), -1)
    m_tgt = target.reorder(order).amplitudes.reshape(2 ** len(local), -1)
    q, s, wh = np.linalg.svd(m_psi, full_matrices=False)
    rank = int(np.sum(s > 1e-9))
    src = q[:, :rank]
    dst = np.column_stack([(m_tgt @ wh[i].conj()) / s[i] for i in range(rank)])
    src_full = complete_basis(src, m_psi.shape[0])
    dst_full = complete_basis(dst, m_psi.shape[0])
    return dst_full @ src_full.conj().T


def optimal_distinguishing_measurement(
    r0: DensityMatrix, r1: DensityMatrix
) -> tuple[OrthogonalMeasurement, float]:
    """Eigenbasis measurement of r0 - r1 and the L1 distance it achieves.

    The achieved L1 distance between the two outcome distributions equals the
    trace norm of r0 - r1, and no generalized measurement can do better.
    """
    if r0.wires != r1.wires:
        raise WireMismatch("states live on different wires")
    delta = r0.matrix - r1.matrix
    _, vecs = hermitian_eig(delta)
    meas = OrthogonalMeasurement(vecs)
    achieved = measurement_l1_distance(r0, r1, meas)
    return meas, achieved


def measurement_l1_distance(r0: DensityMatrix, r1: DensityMatrix,
                            m: OrthogonalMeasurement) -> float:
    """L1 distance between the outcome distributions a measurement induces.

    With basis vectors v_i this is sum_i |<v_i| r0 - r1 |v_i>|.
    """
    delta = r0.matrix - r1.matrix
    diffs = np.einsum("ji,jk,ki->i", m.matrix.conj(), delta, m.matrix).real
    return float(np.sum(np.abs(diffs)))


# ---------------------------------------------------------------------------
# Seeded randomness (Haar-style sampling by orthonormalizing complex Gaussians)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(wires: Sequence[str], rng: np.random.Generator) -> StateVector:
    wires = _check_wires(wires)
    dim = 2 ** len(wires)
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(wires, z / np.linalg.norm(z))


def random_density(wires: Sequence[str], rng: np.random.Generator) -> DensityMatrix:
    wires = _check_wires(wires)
    dim = 2 ** len(wires)
    weights = rng.dirichlet(np.ones(dim))
    m = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        m += w * np.outer(v, v.conj())
    return DensityMatrix(wires, m)


def random_basis_measurement(dim: int, rng: np.random.Generator) -> OrthogonalMeasurement:
    return OrthogonalMeasurement(random_unitary(dim, rng))
