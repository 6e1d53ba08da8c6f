"""Strategies that only the tests need."""

import numpy as np

from qescrow.protocols import (
    Apply,
    Draw,
    EscrowParams,
    MeasureRecord,
    SetBits,
    StrategySpec,
    honest_alice_escrow,
    honest_alice_weak,
)
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


def weak_alice_every_coin_err(theta: float) -> StrategySpec:
    """A depositor who always reveals the wrong coin bit, so every coin result is err."""
    programs = dict(honest_alice_weak(EscrowParams(theta)).programs)
    not_b2 = np.stack((np.array([[0, 1], [1, 0]]), np.eye(2)))
    programs["deposit"] = (Draw("b2"), Apply(("a0",), not_b2, keys=("b2",)),
                           MeasureRecord(("a0",), OrthogonalMeasurement.computational(1), "not_b2")
                           ) + programs["deposit"]
    programs["coin_deposit"] = programs["coin_deposit"][1:]
    programs["coin_reveal"] = (SetBits({"rb2": "not_b2", "rx2": "x2"}),)
    return StrategySpec("alice", 1, programs)


def apply_to_state(psi: StateVector, matrix: np.ndarray, on) -> StateVector:
    """The matrix on the wires ``on`` of one state, applied through its one-row stack."""
    out = apply_unitary(StateStack.of(psi), Unitary(matrix), on)
    return StateVector(psi.wires, out.amplitudes[0])
