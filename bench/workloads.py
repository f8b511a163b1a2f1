"""The benchmark's three workloads.

Each workload is a closed, sequential batch: one call into ``pavls`` at a
time, each call waiting for the previous one.  A workload instance is
set up when it is constructed, which is the timed set-up (construction,
native round trip, index build, sequence or config); :meth:`unit` is one
fixed unit of work, repeated by the timing loop; :meth:`observe` reduces
a unit's output to the exact facts compared against ``expected.json``.

The constructions are deterministic; the seed only reaches the IC grid.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from functools import cached_property
from itertools import islice

from pavls import constructions, core, formats, harness, oracle, samplers, search

from tracing import NO_TRACE, approver_counts


def digest(values) -> str:
    return hashlib.sha256("\n".join(map(str, values)).encode()).hexdigest()


def build_indexes(election: core.Election) -> None:
    """Force every lazily built index of the election."""
    for attr, value in vars(core.Election).items():
        if isinstance(value, cached_property):
            getattr(election, attr)


def load_native(election: core.Election) -> core.Election:
    """Round-trip through the native format, as ``pavls certify`` loads it."""
    return formats.parse_native(formats.serialize_native(election))


def traffic(elections: list[core.Election], ks: list[int]) -> dict:
    """Input properties the engine's cost depends on."""
    classes = [len(e.ballot_classes) for e in elections]
    approvers = [sum(approver_counts(e)) / e.m for e in elections]
    return {
        "classes": sum(classes) / len(classes),
        "mean_approvers_per_candidate": sum(approvers) / len(approvers),
        "k_min": min(ks),
        "k_max": max(ks),
        "lcm_bits": max(core.lcm_range(k + 1).bit_length() for k in ks),
    }


class Workload:
    name = ""
    #: name of the throughput in the detailed record, per executed operation
    throughput = ""
    sizes: dict[str, dict] = {}
    #: swaps materialised by the set-up (0 when it builds no sequence)
    sequence_len = 0

    def __init__(self, size: str, seed: int, tracer=NO_TRACE):
        self.seed = seed
        self.params = self.sizes[size]
        self.setup(tracer)

    def setup(self, tracer) -> None:
        """Build the inputs; this is what ``setup_s`` times."""
        raise NotImplementedError

    def unit(self):
        raise NotImplementedError

    def ops(self) -> int:
        """Operations one unit attempts."""
        raise NotImplementedError

    def observe(self, out) -> dict:
        raise NotImplementedError

    def failures(self, out, expected: dict) -> int:
        """Operations of one unit that fail a correctness check."""
        return 0 if self.observe(out) == expected else self.ops()

    def work(self, out) -> dict:
        """Deterministic work counts of one unit, read from its output."""
        raise NotImplementedError

    def final_failures(self, units: int) -> int:
        """Untimed checks after the timing loop; failed operations."""
        return 0

    def descriptors(self) -> dict:
        """Input properties the engine's cost depends on."""
        raise NotImplementedError


class LayeredCertify(Workload):
    """Replay of the whole level-2 x-sequence on layered (2, 64).

    (3, 64), with 5,376 classes, swung by up to 1.8x with contention from
    other tenants of a shared 2-vCPU Xeon host; (2, 64) keeps the dense
    classes and the lcm(1..65) scale at a quarter of the size, and
    certifies a whole sequence per unit.
    """

    name = "layered_certify_2_64"
    throughput = "certified_steps_per_s"
    sizes = {
        "full": {"levels": 2, "k": 64, "prefix": 4160},
        "tiny": {"levels": 2, "k": 22, "prefix": 50},
    }

    def setup(self, tracer) -> None:
        p = self.params
        params = constructions.LayeredParams(p["levels"], p["k"])
        self.election = load_native(constructions.layered_election(params).election)
        build_indexes(self.election)
        with tracer.span("constructions.sequence"):
            self.sequence = list(islice(
                constructions.iter_x_sequence(params, params.levels, 1), p["prefix"]))
        self.sequence_len = len(self.sequence)
        self.start = constructions.layered_initial_committee(params)
        self.epsilon = core.Epsilon.zero_plus(params.k)

    def unit(self):
        return core.validate_sequence(self.election, self.start, self.sequence, self.epsilon)

    def ops(self) -> int:
        return self.params["prefix"]

    def observe(self, cert) -> dict:
        return {
            "steps": cert.steps,
            "structurally_valid": cert.structurally_valid,
            "certified_good": cert.certified_good,
            "total_gain": str(cert.total_gain),
            "min_delta": str(min(cert.step_deltas, default=0)),
            "max_delta": str(max(cert.step_deltas, default=0)),
            "deltas_sha256": digest(cert.step_deltas),
        }

    def work(self, cert) -> dict:
        return {"delta_evals": cert.steps, "swaps_applied": cert.steps, "picker_scans": 0}

    def descriptors(self) -> dict:
        return traffic([self.election], [self.params["k"]])


class HardenedLex(Workload):
    """Lexicographic better response on hardened (2, 32), capped."""

    name = "hardened_lex_2_32"
    throughput = "lex_swaps_per_s"
    sizes = {
        "full": {"levels": 2, "k": 32, "cap": 40},
        "tiny": {"levels": 2, "k": 22, "cap": 2},
    }

    def setup(self, tracer) -> None:
        p = self.params
        hp = constructions.HardenedParams(constructions.LayeredParams(p["levels"], p["k"]))
        self.election = load_native(constructions.hardened_election(hp).election)
        build_indexes(self.election)
        with tracer.span("constructions.sequence"):
            self.predicted = list(islice(
                constructions.iter_z_sequence(hp.layered, hp.layered.levels, 1), p["cap"]))
        self.sequence_len = len(self.predicted)
        self.start = constructions.layered_initial_committee(hp.layered)
        self.epsilon = core.Epsilon.zero_plus(p["k"])
        self.rule = search.LexicographicBetterResponse(hp.candidate_order())
        self.gamma = hp.gamma_value

    def unit(self):
        return search.run(self.election, self.start, self.epsilon, self.rule,
                          step_cap=self.params["cap"])

    def ops(self) -> int:
        return self.params["cap"]

    def observe(self, trace) -> dict:
        return {
            "swaps": trace.swaps,
            "terminated": trace.terminated,
            "comparisons": trace.comparisons,
            "deltas_sha256": digest(trace.step_deltas),
        }

    def failures(self, trace, expected: dict) -> int:
        if self.observe(trace) != expected:
            return self.ops()
        # The executed swaps must be the predicted z-sequence prefix, each
        # gaining at most gamma (the blocker sizing bound).
        return sum(
            1 for i, want in enumerate(self.predicted)
            if i >= trace.swaps or trace.executed_swaps[i] != want
            or not 0 < trace.step_deltas[i] <= self.gamma
        )

    def work(self, trace) -> dict:
        return {
            "delta_evals": trace.comparisons,
            "swaps_applied": trace.swaps,
            "picker_scans": trace.swaps + trace.terminated,
        }

    def descriptors(self) -> dict:
        return traffic([self.election], [self.params["k"]])


class ICGrid(Workload):
    """Seeded experiment grid over IC(0.5) elections, both rules."""

    name = "ic_grid_n100_m20"
    throughput = "runs_per_s"
    sizes = {
        "full": {"n": 100, "m": 20, "k_values": list(range(3, 11)), "reps": 40,
                 "probe_ks": list(range(3, 11))},
        "tiny": {"n": 100, "m": 20, "k_values": [3, 4], "reps": 1, "probe_ks": [3]},
    }
    rules = {"lex-better": search.LexicographicBetterResponse(), "best": search.BestResponse()}

    def setup(self, tracer) -> None:
        p = self.params
        source = samplers.SamplerConfig(samplers.ImpartialCulture(0.5), p["n"], p["m"], 0)
        self.config = harness.ExperimentConfig(
            source=source, k_values=tuple(p["k_values"]), repetitions=p["reps"],
            rules=tuple(self.rules), base_seed=self.seed)
        # The first repetition of each probed k: sampled and indexed here so
        # the sampler and index paths are warm, and re-run by the oracle check.
        self.probes = []
        for ki, k in enumerate(self.config.k_values):
            if k not in p["probe_ks"]:
                continue
            seed = harness.run_seed(self.seed, ki, p["reps"], 0)
            election = samplers.sample(replace(source, seed=seed)).with_committee_size(k)
            build_indexes(election)
            self.probes.append((k, election))
        self.reference = None

    def unit(self):
        result = harness.run_experiment(self.config)
        return result, result.runs_csv(), result.aggregate_csv()

    def ops(self) -> int:
        return len(self.config.k_values) * self.config.repetitions * len(self.config.rules)

    def observe(self, out) -> dict:
        _result, runs, aggregate = out
        return {
            "runs_sha256": hashlib.sha256(runs.encode()).hexdigest(),
            "aggregate_sha256": hashlib.sha256(aggregate.encode()).hexdigest(),
        }

    def failures(self, out, expected: dict) -> int:
        result, observed = out[0], self.observe(out)
        if self.reference is None:
            self.reference, self.reference_observation = result, observed
        # Digests are recorded for some seeds; under any other seed every
        # unit must reproduce the first one byte for byte.
        want = expected.get(str(self.seed), self.reference_observation)
        if len(result.runs) != self.ops() or observed != want:
            return self.ops()
        return sum(1 for row in result.runs if row["error"])

    def work(self, out) -> dict:
        rows = [r for r in out[0].runs if not r["error"]]
        return {
            "delta_evals": sum(r["comparisons"] for r in rows),
            "swaps_applied": sum(r["swaps"] for r in rows),
            "picker_scans": sum(r["swaps"] + 1 for r in rows),
        }

    def final_failures(self, units: int) -> int:
        """Re-run the first repetition of each probed k outside the harness and
        check the row it produced and, with the from-scratch oracle, that
        the final committee is locally optimal."""
        rows = {(r["k"], r["rule"], r["rep"]): r for r in self.reference.runs}
        failed = 0
        for k, election in self.probes:
            epsilon = core.Epsilon.zero_plus(k)
            initial = harness.select_initial_committee(election)
            for rule_name, rule in self.rules.items():
                trace = search.run(election, initial, epsilon, rule)
                row = rows[(k, rule_name, 0)]
                optimal, _swap, _gain = oracle.is_locally_optimal(
                    election, trace.final_committee, epsilon)
                if not (trace.terminated and optimal and row["swaps"] == trace.swaps
                        and row["comparisons"] == trace.comparisons):
                    failed += units
        return failed

    def descriptors(self) -> dict:
        return traffic([e for _k, e in self.probes], list(self.config.k_values))


WORKLOADS = {w.name: w for w in (LayeredCertify, HardenedLex, ICGrid)}
