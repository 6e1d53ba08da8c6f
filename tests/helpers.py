"""Strategies that only the tests need."""

from qescrow.protocols import EscrowParams, SetRecord, StrategySpec, honest_alice_escrow


def fixed_bit_alice(bit: int, params: EscrowParams = EscrowParams()) -> StrategySpec:
    """Depositor who always escrows and claims the same bit."""
    base = honest_alice_escrow(params)
    return StrategySpec(
        party="alice", ancilla_count=0, label=f"alice-always-{bit}",
        programs={
            "deposit": (SetRecord("b", bit),) + base.programs["deposit"],
            "reveal": base.programs["reveal"],
        },
    )
