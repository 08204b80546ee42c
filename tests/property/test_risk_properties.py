"""Property-based invariants of the risk engine.

* sampler marginals stay within the profile's declared envelopes
  (temperature inside the histogram support) for any valid
  correlation / persistence / segment configuration;
* correlation-matrix validation rejects every non-PSD input with a
  clear error and accepts every generated PSD one;
* a batch of n draws or scenarios equals n one-sample calls exactly,
  wherever the stream is cut into batches;
* same-seed sampled campaigns journal byte-identically and produce the
  same ``RiskReport.canonical()`` across serial and parallel
  executors, from fresh builds or the golden-run ladder.
"""

import json
import os
import pathlib
import random
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import Campaign, FaultSpace
from repro.faults import SRAM_SEU
from repro.kernel import Simulator, simtime
from repro.mission import standard_passenger_car_profile
from repro.risk import (
    BlackSwanEvent,
    CorrelationError,
    CorrelationMatrix,
    RiskReport,
    SampledScenarioStrategy,
    StressSampler,
)

from ..risk.conftest import DURATION, STUCK_HIGH

# ---------------------------------------------------------------------------
# Correlation matrices: generated PSD inputs pass, perturbed ones fail.
# ---------------------------------------------------------------------------

@st.composite
def psd_correlations(draw):
    """A guaranteed-valid correlation: normalized Gram matrix A·Aᵀ."""
    rows = draw(
        st.lists(
            st.lists(
                st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
                min_size=4, max_size=4,
            ),
            min_size=4, max_size=4,
        )
    )
    a = np.asarray(rows, dtype=float)
    gram = a @ a.T + 1e-3 * np.eye(4)
    d = np.sqrt(np.diag(gram))
    normalized = gram / np.outer(d, d)
    # Exact symmetry + unit diagonal despite float division.
    normalized = (normalized + normalized.T) / 2.0
    np.fill_diagonal(normalized, 1.0)
    return tuple(tuple(float(v) for v in row) for row in normalized)


class TestCorrelationValidation:
    @given(psd_correlations())
    @settings(max_examples=40, deadline=None)
    def test_generated_psd_matrices_accepted(self, values):
        matrix = CorrelationMatrix(values)
        assert matrix.cholesky().shape == (4, 4)

    @given(psd_correlations(), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_rank_breaking_perturbation_rejected(self, values, k):
        # Push one off-diagonal pair past what PSD-ness can bear while
        # keeping entries in [-1, 1]: copy a row's correlation pattern
        # into another row but flip its sign — with magnitudes near 1
        # the matrix cannot stay PSD.
        broken = [list(row) for row in values]
        i, j = k, k + 1
        broken[i][j] = 0.99
        broken[j][i] = 0.99
        other = (k + 2) % 4 if (k + 2) % 4 not in (i, j) else 3
        broken[i][other] = 0.99
        broken[other][i] = 0.99
        broken[j][other] = -0.99
        broken[other][j] = -0.99
        try:
            CorrelationMatrix(tuple(tuple(row) for row in broken))
        except CorrelationError as error:
            assert "positive semi-definite" in str(error)
        else:
            # The construction above is always non-PSD: x+y strongly
            # correlated while pulling a third variable both ways.
            raise AssertionError("non-PSD matrix was accepted")


# ---------------------------------------------------------------------------
# Sampler marginals stay inside the profile envelope.
# ---------------------------------------------------------------------------

@st.composite
def sampler_configs(draw):
    seed = draw(st.integers(0, 2**16))
    segments = draw(st.integers(1, 12))
    persistence = draw(st.floats(0.0, 0.95, allow_nan=False))
    correlation = CorrelationMatrix(draw(psd_correlations()))
    return seed, segments, persistence, correlation


class TestMarginalSupport:
    @given(sampler_configs())
    @settings(max_examples=25, deadline=None)
    def test_temperature_within_histogram_support(self, config):
        seed, segments, persistence, correlation = config
        profile = standard_passenger_car_profile()
        sampler = StressSampler(
            profile,
            correlation=correlation,
            segments=segments,
            persistence=persistence,
            events=(),  # overlays intentionally leave the envelope
            seed=seed,
        )
        support = set(profile.temperature.histogram)
        for env in sampler.draw_many(5):
            assert set(env.temperature_c) <= support
            assert all(g > 0 for g in env.vibration_grms)
            assert all(e > 0 for e in env.emi_v_per_m)
            assert all(f > 0 for f in env.load_factor)

    @given(st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_same_seed_reproduces_stream(self, seed):
        profile = standard_passenger_car_profile()

        def draw():
            return [
                e.to_jsonable()
                for e in StressSampler(profile, seed=seed).draw_many(4)
            ]

        assert draw() == draw()


# ---------------------------------------------------------------------------
# Batch shape: any cut of the stream into batches is the same stream.
# ---------------------------------------------------------------------------

def _space():
    from repro.platforms import airbag

    return FaultSpace(
        airbag.build_normal_operation(Simulator()),
        [SRAM_SEU.with_rate(5e-7), STUCK_HIGH],
        window_start=simtime.ms(5),
        window_end=simtime.ms(30),
        time_bins=2,
    )


#: A near-certain and an even-odds overlay, so every batch rolls,
#: places and applies black swans.
OVERLAYS = (
    BlackSwanEvent(
        "storm", rate_per_hour=1e-3, emi_factor=6.0, span_fraction=0.4
    ),
    BlackSwanEvent(
        "freeze", rate_per_hour=1e-4, temperature_delta_c=-35.0,
        load_factor=1.3, span_fraction=1.0,
    ),
)


def batch_cuts(max_batches):
    """Batch sizes, empty ones included, for one stream."""
    return st.lists(st.integers(0, 8), min_size=1, max_size=max_batches)


class TestBatchShape:
    @given(sampler_configs(), st.booleans(), batch_cuts(5))
    @settings(max_examples=25, deadline=None)
    def test_draw_batches_equal_single_draws(self, config, swans, cut):
        seed, segments, persistence, correlation = config

        def sampler():
            return StressSampler(
                standard_passenger_car_profile(),
                correlation=correlation, segments=segments,
                persistence=persistence, seed=seed,
                events=OVERLAYS if swans else (),
            )

        batched, single = sampler(), sampler()
        drawn = []
        for size in cut:
            drawn += batched.draw_many(size)
        assert drawn == [single.draw() for _ in range(sum(cut))]
        assert batched.rng.getstate() == single.rng.getstate()
        assert batched.draw() == single.draw()

    @given(
        st.integers(0, 2**16), st.booleans(), st.integers(1, 2),
        batch_cuts(3),
    )
    @settings(max_examples=15, deadline=None)
    def test_scenario_batches_equal_single_scenarios(
        self, seed, shared, faults, cut
    ):
        space = _space()

        def plan(batched):
            rng = random.Random(seed)
            profile = standard_passenger_car_profile()
            sampler = (
                StressSampler(profile, rng=rng, events=OVERLAYS) if shared
                else StressSampler(profile, seed=seed + 1, events=OVERLAYS)
            )
            strategy = SampledScenarioStrategy(
                space, sampler, faults_per_scenario=faults
            )
            scenarios = []
            for size in cut:
                if batched:
                    scenarios += strategy.next_batch(rng, size)
                else:
                    scenarios += [
                        strategy.next_scenario(rng) for _ in range(size)
                    ]
            return scenarios, strategy.samples, strategy.specs, rng.random()

        assert plan(True) == plan(False)


# ---------------------------------------------------------------------------
# Same-seed campaigns: byte-identical journals and canonical reports
# across serial / parallel execution, from fresh builds or the ladder.
# ---------------------------------------------------------------------------

PIN = simtime.ms(50)


def _run(seed, backend, reuse_platform, checkpoint):
    profile = standard_passenger_car_profile()
    strategy = SampledScenarioStrategy(
        _space(), StressSampler(profile, seed=seed), injection_time=PIN
    )
    campaign = Campaign(
        duration=DURATION, seed=seed + 1, platform="airbag-normal"
    )
    kwargs = dict(
        backend=backend, batch_size=6, trace=True,
        reuse_platform=reuse_platform, checkpoint=checkpoint,
    )
    if backend == "parallel":
        kwargs["workers"] = 2
    result = campaign.run(strategy, runs=12, **kwargs)
    return RiskReport.from_campaign(result, strategy)


def _journal(path):
    rows = []
    for line in path.read_text().splitlines():
        payload = json.loads(line)
        if isinstance(payload, dict):
            stats = payload.get("kernel_stats")
            if isinstance(stats, dict):
                stats.pop("wall_s", None)
        rows.append(payload)
    return rows


class TestCampaignEquivalenceProperty:
    # tempfile (not the tmp_path fixture) so each hypothesis example
    # gets a fresh directory without tripping the function-scoped
    # fixture health check.
    @given(st.integers(0, 2**10))
    @settings(max_examples=4, deadline=None)
    def test_serial_fork_journals_and_reports_match(self, seed):
        with tempfile.TemporaryDirectory() as tmp:
            plain_path = pathlib.Path(tmp) / "plain.jsonl"
            fork_path = pathlib.Path(tmp) / "fork.jsonl"
            plain = _run(
                seed, "serial", reuse_platform=False, checkpoint=plain_path
            )
            forked = _run(
                seed, "serial", reuse_platform=True, checkpoint=fork_path
            )
            assert plain.canonical() == forked.canonical()
            assert _journal(plain_path) == _journal(fork_path)

    @given(st.integers(0, 2**10))
    @settings(max_examples=2, deadline=None)
    def test_serial_parallel_journals_and_reports_match(self, seed):
        previous = os.environ.get("REPRO_FORCE_POOL")
        os.environ["REPRO_FORCE_POOL"] = "1"
        try:
            with tempfile.TemporaryDirectory() as tmp:
                serial_path = pathlib.Path(tmp) / "serial.jsonl"
                pool_path = pathlib.Path(tmp) / "pool.jsonl"
                serial = _run(
                    seed, "serial", reuse_platform=True,
                    checkpoint=serial_path,
                )
                pooled = _run(
                    seed, "parallel", reuse_platform=True,
                    checkpoint=pool_path,
                )
                assert serial.canonical() == pooled.canonical()
                assert _journal(serial_path) == _journal(pool_path)
        finally:
            if previous is None:
                del os.environ["REPRO_FORCE_POOL"]
            else:
                os.environ["REPRO_FORCE_POOL"] = previous
