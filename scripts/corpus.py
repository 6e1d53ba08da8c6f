#!/usr/bin/env python3
"""Write a fixed, seeded corpus of library results, so two checkouts can be compared.

Usage: python scripts/corpus.py --out FILE

Every runner, batch runner and analysis entry point is called on fixed
honest strategies and on seeded random ones, at each escrow angle in
``THETAS``, and so are a set of malformed inputs.  Each call writes one line:
its name, then its result with every float as ``float.hex``, or, when it
raises, the exception's type and message.  The same checkout always writes the
same file.  ``scripts/corpus_diff.py OLD NEW`` compares two checkouts' files:
they must raise the same errors and give the same results up to floats that
differ by at most 1e-12.

The library is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qescrow import adversaries as adv  # noqa: E402
from qescrow import analysis as ana  # noqa: E402
from qescrow import protocols as proto  # noqa: E402
from qescrow import qmath  # noqa: E402

SEED = 2024
THETAS = (math.pi / 16, math.pi / 12, math.pi / 8)
RANDOM_CASES = 40   # random strategies (or pairs) of each kind, per angle where one applies
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def text(value) -> str:
    """A value as text with every float (and each part of a complex) as ``float.hex``."""
    if isinstance(value, (bool, np.bool_, type(None), str)):
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (complex, np.complexfloating)):
        return f"({float(value.real).hex()},{float(value.imag).hex()})"
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, np.ndarray):
        return text(value.tolist())
    if dataclasses.is_dataclass(value):
        return type(value).__name__ + text(tuple(getattr(value, f.name)
                                                 for f in dataclasses.fields(value)))
    if isinstance(value, dict):
        return "{" + ", ".join(f"{text(k)}: {text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(text(v) for v in value) + ")"
    raise TypeError(f"no text form for {type(value).__name__}")


class Corpus:
    def __init__(self):
        self.lines: list[str] = []

    def add(self, name: str, call, *args, **kwargs) -> None:
        try:
            result = text(call(*args, **kwargs))
        except Exception as exc:  # a failure is a result: its type and message
            result = f"raises {type(exc).__name__}: {exc}"
        self.lines.append(f"{name} = {result}")


def honest_runs(c: Corpus) -> None:
    for theta in THETAS:
        params = proto.EscrowParams(theta)
        alice, bob = proto.honest_alice_escrow(params), proto.honest_bob_escrow()
        for b in (0, 1):
            for challenge in proto.Challenge:
                c.add(f"escrow {challenge.name} {theta} {b}", proto.run_escrow, alice, bob,
                      challenge, claimed_bit=b, params=params)
            c.add(f"reveal-first {theta} {b}", proto.run_escrow_reveal_then_return, alice, bob,
                  b, params)
            c.add(f"weak {theta} {b}", proto.run_weak_commitment, proto.honest_alice_weak(params),
                  proto.honest_bob_weak(), b, params)
        c.add(f"bit density {theta}", proto.escrow_bit_density, 1, theta)
    c.add("coinflip", proto.run_coinflip, proto.honest_alice_coinflip(),
          proto.honest_bob_coinflip())
    for bit in (0, 1):
        c.add(f"constant bob {bit}", ana.coinflip_bias, ana.HonestParty.ALICE_HONEST,
              adv.constant_bob(bit))
    c.add("full measurement bob", ana.coinflip_bias, ana.HonestParty.ALICE_HONEST,
          adv.full_measurement_bob())


def coinflip_runs(c: Corpus, rng: np.random.Generator) -> None:
    alice, bob = proto.honest_alice_coinflip(), proto.honest_bob_coinflip()
    receivers, depositors = [], []
    for i in range(RANDOM_CASES):
        receivers.append(adv.bob_measure_coinflip(adv.unitary_from_angles(
            2, rng.uniform(0, math.pi, 3))))
        receivers.append(adv.bob_entangling_coinflip(qmath.random_unitary(8, rng)))
        depositors.append(adv.alice_coinflip_from_angles(rng.uniform(0, math.pi, 12)))
    for i, spec in enumerate(receivers):
        c.add(f"coinflip receiver {i}", proto.run_coinflip, alice, spec)
    for i, spec in enumerate(depositors):
        c.add(f"coinflip depositor {i}", ana.coinflip_bias, ana.HonestParty.BOB_HONEST, spec)
    c.add("coinflip batch", proto.run_coinflip_batch,
          [alice] * len(receivers) + depositors, receivers + [bob] * len(depositors))
    c.add("coinflip bias batch", ana.coinflip_bias_batch, ana.HonestParty.ALICE_HONEST,
          receivers)


def escrow_runs(c: Corpus, rng: np.random.Generator) -> None:
    for theta in THETAS:
        params = proto.EscrowParams(theta)
        alice = proto.honest_alice_escrow(params)
        receivers = [adv.random_return_attack(rng, ancillas=i % 3) for i in range(RANDOM_CASES)]
        bits = [i % 2 for i in range(RANDOM_CASES)]
        for challenge in proto.Challenge:
            c.add(f"escrow batch {challenge.name} {theta}", proto.run_escrow_batch,
                  [alice] * len(receivers), receivers, challenge, bits, params)
        c.add(f"reveal-first batch {theta}", proto.run_escrow_reveal_then_return_batch,
              [alice] * len(receivers), receivers, bits, params)
        for i, bob in enumerate(receivers[:RANDOM_CASES // 2]):
            c.add(f"sealing {theta} {i}", ana.sealing_metrics, bob, params)
            c.add(f"enumerated return {theta} {i}", ana.enumerated_return_error, bob, params)
            composed = proto.StrategySpec("bob", bob.ancilla_count, {
                "receive": bob.programs["receive"],
                "return": (proto.Apply(("dep",) + bob.ancillas,
                                       qmath.random_unitary(2 * 2 ** bob.ancilla_count, rng)),),
                "coin_choose": proto.honest_bob_weak().programs["coin_choose"]})
            c.add(f"weak receiver {theta} {i}", proto.run_weak_commitment,
                  proto.honest_alice_weak(params), composed, i % 2, params)
        for i in range(RANDOM_CASES // 2):
            pair = (adv.random_return_attack(rng, ancillas=1),
                    adv.random_return_attack(rng, ancillas=1))
            c.add(f"modified sealing {theta} {i}", ana.modified_sealing_check, pair, params)
        for alpha in (0.0, math.pi / 8, math.pi / 4):
            c.add(f"quadratic {theta} {alpha}", ana.binding_metrics,
                  *adv.protocol_quadratic_pair(alpha, params), params)
        for p in (0.0, 0.5, 1.0):
            r0, r1 = proto.escrow_bit_density(0, theta), proto.escrow_bit_density(1, theta)
            c.add(f"weak measurement {theta} {p}", ana.sealing_metrics,
                  adv.bob_weak_measurement(adv.BobWeakParams(p), r0, r1), params)
    for i in range(RANDOM_CASES):
        pair = adv.random_binding_pair(rng)
        c.add(f"binding {i}", ana.binding_metrics, *pair)
        c.add(f"reduced deposit {i}", proto.deposit_reduced_state, pair[0])
        c.add(f"reveal random opening {i}", proto.run_escrow, pair[1], proto.honest_bob_escrow(),
              proto.Challenge.REVEAL_TO_BOB)


def message_wire_runs(c: Corpus, rng: np.random.Generator) -> None:
    """Dishonest senders that put gates and measurements on message wires, or flip a deposit."""
    weak_bob = proto.honest_bob_weak()
    for b in (0, 1):
        programs = dict(proto.honest_alice_weak().programs,
                        reveal_bit=(proto.SetBits({"rb": "b"}), proto.Apply(("rb",), HADAMARD)))
        c.add(f"weak hadamard reveal {b}", proto.run_weak_commitment,
              proto.StrategySpec("alice", 0, programs), weak_bob, b)
    flipper = proto.StrategySpec("bob", 1, {"receive": (
        proto.Apply(("dep", "c0"), qmath.random_unitary(4, rng)),
        proto.MeasureRecord(("c0",), qmath.random_basis_measurement(2, rng), "m"),
        proto.SetBits({"dep": "m"}))})
    for challenge in proto.Challenge:
        c.add(f"flipping receiver {challenge.name}", proto.run_escrow,
              proto.honest_alice_escrow(), flipper, challenge, 1)
    cnot = proto.StrategySpec("alice", 1, {
        "deposit": (proto.Apply(("a0", "dep"), qmath.random_unitary(4, rng)),),
        "reveal": (proto.MeasureRecord(("a0",), qmath.random_basis_measurement(2, rng), "g"),
                   proto.Apply(("rb",), HADAMARD),
                   proto.SetBits({"rb": "g", "rx": "g"}))})
    c.add("superposed claim", proto.run_coinflip, cnot, proto.honest_bob_coinflip())


def optimizer_runs(c: Corpus) -> None:
    alice, bob = proto.honest_alice_coinflip(), proto.honest_bob_coinflip()
    bob_config = adv.OptimizerConfig(honest_party="alice", grid_resolution=3,
                                     simplex_iterations=30)
    alice_config = adv.OptimizerConfig(honest_party="bob", grid_resolution=2,
                                       simplex_iterations=30, n_starts=2)
    c.add("receiver search", adv.optimize, adv.bob_coinflip_space(), bob_config,
          lambda spec: proto.run_coinflip(alice, spec))
    c.add("depositor search", adv.optimize, adv.alice_coinflip_space(), alice_config,
          lambda spec: proto.run_coinflip(spec, bob), extra_seeds=[adv.ALICE_SEED_POINT])


def malformed_runs(c: Corpus, rng: np.random.Generator) -> None:
    """Inputs that raise a typed error, and where."""
    alice, bob = proto.honest_alice_escrow(), proto.honest_bob_escrow()
    rotate = proto.Apply(("dep",), proto.rotation(0.3))
    unset = proto.StrategySpec("alice", 0, {"deposit": (rotate,),
                                            "reveal": (proto.SetBits({"rb": "unset"}),)})
    cases = {
        "unset key in opening": lambda: proto.run_escrow(unset, bob, proto.Challenge.REVEAL_TO_BOB),
        "unset key, reduced deposit": lambda: proto.deposit_reduced_state(unset),
        "unset key, binding": lambda: ana.binding_metrics(unset, unset),
        "unseeded return check": lambda: proto.run_escrow(
            proto.StrategySpec("alice", 0, {"deposit": (rotate,)}), bob,
            proto.Challenge.RETURN_TO_ALICE),
        "foreign wire": lambda: proto.run_escrow(
            proto.StrategySpec("alice", 0, {"deposit": (proto.Apply(("c0",), np.eye(2)),)}),
            bob, proto.Challenge.REVEAL_TO_BOB, 0),
        "unknown phase": lambda: proto.run_coinflip(
            proto.StrategySpec("alice", 0, {"choose": ()}), proto.honest_bob_coinflip()),
        "seed 0.5": lambda: proto.run_escrow(alice, bob, proto.Challenge.REVEAL_TO_BOB, 0.5),
        "challenge str": lambda: proto.run_escrow(alice, bob, "reveal", 0),
        "seat swap": lambda: proto.run_escrow(bob, alice, proto.Challenge.REVEAL_TO_BOB, 0),
        "no honest party": lambda: proto.run_coinflip(
            proto.StrategySpec("alice", 0, proto.honest_alice_coinflip().programs),
            proto.StrategySpec("bob", 0, proto.honest_bob_coinflip().programs)),
        "wire budget": lambda: proto.run_weak_commitment(
            proto.StrategySpec("alice", 2, proto.honest_alice_weak().programs, honest=True),
            proto.honest_bob_weak(), 0),
        "runs do not pair up": lambda: proto.run_escrow_batch(
            [alice, alice], [bob], proto.Challenge.RETURN_TO_ALICE, [0, 1], proto.EscrowParams()),
        "different deposits": lambda: ana.binding_metrics(
            adv.random_binding_pair(rng)[0], adv.random_binding_pair(rng)[1]),
        "keys int": lambda: proto.Apply(("dep",), np.eye(2), keys=5),
        "record name empty": lambda: proto.Draw(""),
        "bit source 2": lambda: proto.SetBits({"bp": 2}),
        "theta str": lambda: proto.EscrowParams("a"),
    }
    for name, build in cases.items():
        c.add(f"malformed {name}", build)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=pathlib.Path)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(SEED)
    c = Corpus()
    honest_runs(c)
    coinflip_runs(c, rng)
    escrow_runs(c, rng)
    message_wire_runs(c, rng)
    optimizer_runs(c)
    malformed_runs(c, rng)
    args.out.write_text("\n".join(c.lines) + "\n")
    print(f"{len(c.lines)} results written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
