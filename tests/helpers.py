"""Strategies that only the tests need."""

import numpy as np

from qescrow.protocols import MeasureRecord, StrategySpec, honest_alice_escrow
from qescrow.qmath import OrthogonalMeasurement, StateStack, StateVector, Unitary, apply_unitary


def fixed_bit_alice(bit: int) -> StrategySpec:
    """Depositor who always escrows and claims the same bit.

    Her fresh ancilla a0 is |0>, and she measures it in the computational
    basis with its columns ordered so that |0> is outcome ``bit``: this
    records ``b = bit`` with certainty.  Then she runs the honest depositor's
    programs.
    """
    base = honest_alice_escrow()
    fix_b = MeasureRecord(("a0",), OrthogonalMeasurement(np.eye(2)[:, [bit, 1 - bit]]), "b")
    return StrategySpec(
        party="alice", ancilla_count=1, label=f"alice-always-{bit}",
        programs={
            "deposit": (fix_b,) + base.programs["deposit"],
            "reveal": base.programs["reveal"],
        },
    )


def apply_to_state(psi: StateVector, matrix: np.ndarray, on) -> StateVector:
    """The matrix on the wires ``on`` of one state, applied through its one-row stack."""
    out = apply_unitary(StateStack.of(psi), Unitary(matrix), on)
    return StateVector(psi.wires, out.amplitudes[0])
