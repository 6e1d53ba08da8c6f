"""Strategies that only the tests need."""

import numpy as np

from qescrow.protocols import MeasureRecord, StrategySpec, honest_alice_escrow
from qescrow.qmath import OrthogonalMeasurement


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
