"""Exact-value pins for the sampled planning stream.

The determinism tests elsewhere compare ``to_jsonable()`` forms, which
round to six digits and so cannot see a drift in the last ulp.  These
pin sha256 digests of the exact ``repr`` of what the sampler and the
strategy produce — floats included, down to the bit — plus the state
of every ``random.Random`` afterwards, so a rewrite of the draw or
planning path that changes a single rounding fails here.

The digests were recorded from the one-sample-at-a-time implementation
(``draw()`` per trajectory, ``next_scenario()`` per scenario); the
batched paths must reproduce them exactly.

The values also go through the host's LAPACK Cholesky, BLAS products
and libm.  OpenBLAS picks its kernels by CPU, and they round in the
last ulp differently, so the digests are recorded per kernel family
and looked up by :func:`arithmetic_digest`; on a host with no recorded
table the pins skip, and ``test_batch_planning.py`` still checks that
batches equal one-sample calls there.
"""

import hashlib
import math
import random

import numpy as np
import pytest

from repro.core import FaultSpace
from repro.faults import SRAM_SEU
from repro.kernel import Simulator, simtime
from repro.mission import standard_passenger_car_profile
from repro.platforms import airbag
from repro.risk import (
    DEFAULT_CORRELATION,
    BlackSwanEvent,
    CorrelationMatrix,
    SampledScenarioStrategy,
    StressSampler,
)

from .conftest import STUCK_HIGH

STORM = BlackSwanEvent(
    "storm", rate_per_hour=1e-3, temperature_delta_c=30.0,
    vibration_factor=1.7, emi_factor=8.0, load_factor=1.4,
    span_fraction=0.5,
)
FREEZE = BlackSwanEvent(
    "freeze", rate_per_hour=2e-4, temperature_delta_c=-45.0,
    load_factor=1.2, span_fraction=1.0,
)

#: Sampler configurations: segment counts, persistence, correlations,
#: event sets, spreads and exposures the planning path must reproduce.
SAMPLER_CONFIGS = {
    "default": {},
    "one-segment": {"segments": 1},
    "two-segments-iid": {"segments": 2, "persistence": 0.0},
    "twelve-sticky": {"segments": 12, "persistence": 0.95},
    "identity-quiet": {
        "correlation": CorrelationMatrix.identity(), "events": (),
    },
    "storms": {
        "events": (STORM, FREEZE), "persistence": 0.3,
        "correlation": CorrelationMatrix.from_pairs(
            temperature_load=0.8, vibration_emi=-0.4
        ),
    },
    "wide-short": {"sigma": (0.5, 0.1, 0.0), "hours_per_sample": 1.0},
}

SAMPLER_SEEDS = (0, 7, 31337)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def arithmetic_digest() -> str:
    """Digest of the host arithmetic the pinned values go through
    besides this package: the Cholesky factor of each pinned
    correlation, its stacked products at each pinned segment count, and
    erf and exp, all on fixed inputs."""
    white = np.random.Generator(np.random.PCG64(1)).standard_normal(
        (2, 12, 4)
    )
    correlations = {
        config.get("correlation", DEFAULT_CORRELATION)
        for config in SAMPLER_CONFIGS.values()
    }
    segment_counts = {
        config.get("segments", 8) for config in SAMPLER_CONFIGS.values()
    }
    parts = []
    for correlation in sorted(correlations, key=repr):
        factor = correlation.cholesky()
        parts.append(factor.tolist())
        for segments in sorted(segment_counts):
            block = np.ascontiguousarray(white[:, :segments])
            parts.append((block @ factor.T).tolist())
    flat = white.ravel().tolist()
    parts.append([math.erf(x) for x in flat])
    parts.append([math.exp(x) for x in flat])
    return _digest(parts)


@pytest.fixture(scope="module")
def pins():
    table = PINS.get(arithmetic_digest())
    if table is None:
        pytest.skip(
            "no digests recorded for this host's BLAS/LAPACK and libm "
            "rounding"
        )
    return table


def sampler_stream(config):
    """Trajectories from each seed, drawn through both public entry
    points, with the discrete rng's state after each stream."""
    profile = standard_passenger_car_profile()
    parts = []
    for seed in SAMPLER_SEEDS:
        sampler = StressSampler(profile, seed=seed, **config)
        drawn = sampler.draw_many(5)
        drawn += [sampler.draw() for _ in range(4)]
        drawn += sampler.draw_many(3)
        parts.append((drawn, sampler.rng.getstate()))
    return parts


@pytest.mark.parametrize("name", sorted(SAMPLER_CONFIGS))
def test_sampler_trajectories_are_pinned(pins, name):
    stream = sampler_stream(SAMPLER_CONFIGS[name])
    assert _digest(stream) == pins["sampler"][name]


# ---------------------------------------------------------------------------
# SampledScenarioStrategy: scenarios, per-sample specs, rng state.
# ---------------------------------------------------------------------------

#: (faults per scenario, pinned injection time or None, rng shared
#: between sampler and planner)
STRATEGY_CONFIGS = {
    "one-fault-pinned": (1, simtime.ms(50), False),
    "one-fault-unpinned": (1, None, False),
    "two-faults-pinned": (2, simtime.ms(50), False),
    "two-faults-unpinned": (2, None, False),
    "shared-rng-pinned": (1, simtime.ms(50), True),
    "shared-rng-unpinned": (2, None, True),
}


def make_space():
    return FaultSpace(
        airbag.build_normal_operation(Simulator()),
        [SRAM_SEU.with_rate(5e-7), STUCK_HIGH],
        window_start=simtime.ms(5),
        window_end=simtime.ms(30),
        time_bins=2,
    )


def strategy_stream(config, seed):
    faults, injection_time, shared = config
    profile = standard_passenger_car_profile()
    rng = random.Random(seed)
    sampler = (
        StressSampler(profile, rng=rng) if shared
        else StressSampler(profile, seed=seed + 100)
    )
    strategy = SampledScenarioStrategy(
        make_space(), sampler,
        faults_per_scenario=faults, injection_time=injection_time,
    )
    scenarios = [strategy.next_scenario(rng) for _ in range(7)]
    scenarios += strategy.next_batch(rng, 5)
    return (
        scenarios, strategy.samples, strategy.specs,
        rng.getstate(), sampler.rng.getstate(),
    )


@pytest.mark.parametrize("name", sorted(STRATEGY_CONFIGS))
def test_strategy_stream_is_pinned(pins, name):
    streams = [
        strategy_stream(STRATEGY_CONFIGS[name], seed) for seed in (3, 11)
    ]
    assert _digest(streams) == pins["strategy"][name]


#: Digests recorded from the one-sample implementation, per OpenBLAS
#: kernel family: SkylakeX (AVX-512 Xeons), Haswell (AVX2 CPUs, AMD Zen
#: included; recorded under ``OPENBLAS_CORETYPE=Haswell``), and
#: Sandybridge and Prescott (AVX and SSE3 kernels, which round alike;
#: recorded under ``OPENBLAS_CORETYPE=Sandybridge`` and ``Prescott``).
SKYLAKEX_PINS = {
    "sampler": {
        "default": "46e9608aa38aa9269245c8e496a0c170b8e87416e2551f036b921319faff465f",
        "identity-quiet": "690bee08600bd68b52d3d7aea68c0a5439437e53960d06fec759b4bf7bb3496d",
        "one-segment": "144c6a286a72591b68637087d989b83c3819c8311240ad815bd4a178a1563df0",
        "storms": "966a0240bd08b48ec8fc1836364173d681335a5f0107645410cc2311a314c38c",
        "twelve-sticky": "2d8c104ab86d51afc5e0ccd3cf6702d17a551f0807086159fade930d8ed4ba33",
        "two-segments-iid": "4a6ab52a1d8a4b2c4a90f69d4788fe342a6e7ae87eb94ebf1dc78798b9e16159",
        "wide-short": "f3dd307cd9ae08b118af00ada763c56991360225ec8ca89562662bd1ed7217c1",
    },
    "strategy": {
        "one-fault-pinned": "63df28fb3fbcfa198dbba4bcf5a0783cb0509e09e9a5a5a2208c37e1419daa1b",
        "one-fault-unpinned": "79999c351aca202ab6a5984392b98e2973467bc70fb75c1c7d67b84ab364a813",
        "shared-rng-pinned": "f8d99eb1288b20a02b6809b3f298a10434695ad5236e7bf568c30374e2e75af5",
        "shared-rng-unpinned": "233715d3d91f8f09c431059ee89bc83990fd90d20d3e236cc29cca3fafe649ef",
        "two-faults-pinned": "73fdccbbfef6347160e9e1d1e7f26699b35ac33f0b1a8c816c224927894c53b2",
        "two-faults-unpinned": "f87c3689d21dba6aeea87c0bc777865c9a1c6434817b2d95a840619a2e0fdb6d",
    },
}

HASWELL_PINS = {
    "sampler": {
        "default": "c43c840037e128cc484bbfc49593f645ea9d9cb1e21946abbd6bf925307cadb9",
        "identity-quiet": "690bee08600bd68b52d3d7aea68c0a5439437e53960d06fec759b4bf7bb3496d",
        "one-segment": "05114bb97619ba206765eec6ea3b7f905fafc3b76380ff17cacbb0132a7a907a",
        "storms": "966a0240bd08b48ec8fc1836364173d681335a5f0107645410cc2311a314c38c",
        "twelve-sticky": "88d9b56fd07632ee4c0c28cd1a74438ff3f4aa1a37d273ac7c6691f465122637",
        "two-segments-iid": "6a1c071fc083da45782d6eaa13fcb05190daddc610d92af096291dc7a4e81e87",
        "wide-short": "f3dd307cd9ae08b118af00ada763c56991360225ec8ca89562662bd1ed7217c1",
    },
    "strategy": {
        "one-fault-pinned": "e2b9b52ecaaf55d477fb49570c12b3fff8c8a27df2889253b630a91b34c1de4b",
        "one-fault-unpinned": "8362bb04fc36e02591eafe65098cc0fa5785f10100964f45a6cf6824e79704ff",
        "shared-rng-pinned": "724fae1d66eb343516f7797a588a51cc0845bc7a4650ddd613aad2629a7146d2",
        "shared-rng-unpinned": "b4cc0aaa518c20d092c5b3130399114b176a338d4cc1f00e364897573baa46a1",
        "two-faults-pinned": "2892aa363984c3b8505d2ec33bd81c3c3a8e1c0fb8d3849a367737cb83fb5b61",
        "two-faults-unpinned": "8287a74c2c2584af5577e03c41e525bb8d0dea673f28a4b12bd3f61106ce0d58",
    },
}

SANDYBRIDGE_PINS = {
    "sampler": {
        "default": "1d1bad3392c4af934553e3f93541951d1e692bb83cb1b8f96fe3f5515ee0196c",
        "identity-quiet": "690bee08600bd68b52d3d7aea68c0a5439437e53960d06fec759b4bf7bb3496d",
        "one-segment": "6c795acd053b6594d6470650f817a3434b9114d9448fa140e110b7edb003f06b",
        "storms": "3330861b11bda69939d89aa389cf925bc24e7eed1f228358fbe3619556efacbe",
        "twelve-sticky": "c75c80438a6d5a10843ffea1481a47ec46db04af6720779d1538626ab4147726",
        "two-segments-iid": "144d34dc7009ce32bdcc904656ff0787a122f3d35936944c7e21ad6449df3c45",
        "wide-short": "626bca64c3f0c3d40f19ea3de7c2acb15759c6c4eca53dd2f8d47262b968a13b",
    },
    "strategy": {
        "one-fault-pinned": "04b0c5bbc95e3dab76dbb58e9204a3291624f348f9181f414a3d3f5c0e73d8f2",
        "one-fault-unpinned": "4069aa27352b7607ac6768f8c40b34f614f82e39fe98e9148e92474ccea325f9",
        "shared-rng-pinned": "e04f70ff7b77aeac6e8ae7a62eab0de3788772c809e58016eb15388221ffbcf1",
        "shared-rng-unpinned": "980d5587d54f9510754583f4213b4f6ad4f1d403429eef63c163bb5f8c23efa0",
        "two-faults-pinned": "6a9cf13c797194f17e86c245e59231c47ef1a83dbbffe87b9857e04c16e314e4",
        "two-faults-unpinned": "1f2eb3c1b9a30032ada097d7e54f2163cc757aa15d59c603a296c0a688cec493",
    },
}

#: Digest tables keyed by the host's :func:`arithmetic_digest`.
PINS = {
    "8d7afb6ec9c53c6d20e7658ebb3daadb86a25eeb58f95cdd7a1feb0384ec1865": SKYLAKEX_PINS,
    "5fb178cbc94252e8221e2f402becd34d01aa05059685d88a6753360e6cb6081a": HASWELL_PINS,
    "94f6c6bca42db0b774e2e4899234807a14aeaf4358037fe23be0c9520bb854a7": SANDYBRIDGE_PINS,
}
