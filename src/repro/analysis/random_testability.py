"""Random-pattern testability: Monte-Carlo detection profiles.

Simulation-based ATPG (and BIST, and the paper's random preamble) lives
or dies by how *random-pattern resistant* the fault population is.  This
module measures it directly: fault-simulate batches of random sequences
and estimate, per fault, the probability of detection within a
length-``L`` random sequence.  The resulting profile drives practical
decisions this package itself makes:

* sizing the ATPG preamble (``SeqATPGConfig.initial_random_vectors``),
* ordering targets hardest-first (resistant faults benefit most from the
  deterministic effort),
* explaining coverage plateaus (see the s27 discussion in
  ``docs/ALGORITHMS.md``: 9/26 faults detectable, the rest resistant or
  undetectable).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..sim.backend import make_backend


@dataclass
class RandomTestabilityProfile:
    """Per-fault random detectability estimates.

    ``detections[f]`` counts the trials (independent random sequences)
    that detected ``f``; ``trials`` is the total.  A fault with zero
    detections is *random-pattern resistant at this horizon* — possibly
    undetectable, possibly just hard.
    """

    circuit_name: str
    sequence_length: int
    trials: int
    detections: Dict[Fault, int] = field(default_factory=dict)
    #: Mean first-detection time over the trials that detected the fault.
    mean_detection_time: Dict[Fault, float] = field(default_factory=dict)

    def detection_probability(self, fault: Fault) -> float:
        """Estimated P(detected within one random length-L sequence)."""
        return self.detections.get(fault, 0) / self.trials

    def resistant_faults(self, threshold: float = 0.0) -> List[Fault]:
        """Faults whose detection probability is <= ``threshold``."""
        return [
            fault for fault in self.detections
            if self.detection_probability(fault) <= threshold
        ]

    def expected_coverage(self) -> float:
        """Mean per-trial coverage in percent."""
        if not self.detections or self.trials == 0:
            return 0.0
        total = sum(self.detections.values())
        return 100.0 * total / (self.trials * len(self.detections))

    def ranked_hardest(self, count: int = 10) -> List[Fault]:
        """The ``count`` faults with the lowest detection probability
        (ties broken by later mean detection time)."""
        return sorted(
            self.detections,
            key=lambda f: (
                self.detections[f],
                -self.mean_detection_time.get(f, float("inf")),
            ),
        )[:count]


def random_testability(
    circuit: Circuit,
    faults: Sequence[Fault],
    sequence_length: int = 64,
    trials: int = 16,
    seed: int = 0,
    simulator_factory=None,
) -> RandomTestabilityProfile:
    """Estimate random detectability of ``faults`` on ``circuit``.

    Runs ``trials`` independent random binary sequences of
    ``sequence_length`` vectors through the packed simulator (one pass
    per trial covers every fault) and aggregates first-detection
    statistics.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    if simulator_factory is not None:
        sim = simulator_factory(circuit, list(faults))
    else:
        sim = make_backend(circuit, list(faults))
    profile = RandomTestabilityProfile(
        circuit_name=circuit.name,
        sequence_length=sequence_length,
        trials=trials,
        detections={fault: 0 for fault in faults},
    )
    time_sums: Dict[Fault, int] = {}
    for _trial in range(trials):
        vectors = [
            tuple(rng.randint(0, 1) for _ in circuit.inputs)
            for _ in range(sequence_length)
        ]
        result = sim.run(vectors)
        for fault, t in result.detection_time.items():
            profile.detections[fault] += 1
            time_sums[fault] = time_sums.get(fault, 0) + t
    for fault, total in time_sums.items():
        profile.mean_detection_time[fault] = total / profile.detections[fault]
    return profile


def suggest_preamble_length(
    profile: RandomTestabilityProfile,
    target_fraction: float = 0.9,
) -> int:
    """Suggested random-preamble length: the mean detection time of the
    ``target_fraction`` quantile fault, doubled (safety), clamped to the
    profiled horizon.

    A cheap heuristic for ``SeqATPGConfig.initial_random_vectors`` —
    past this point random vectors mostly stop paying.
    """
    if not 0.0 < target_fraction <= 1.0:
        raise ValueError("target_fraction must be in (0, 1]")
    times = sorted(profile.mean_detection_time.values())
    if not times:
        return profile.sequence_length
    index = min(len(times) - 1, int(target_fraction * len(times)))
    return min(profile.sequence_length, max(1, int(2 * times[index])))
