"""Correlated mission-environment sampling.

Sec. 3.2 makes the mission profile — environmental stresses plus
operating states — the contract driving failure-rate derivation and
scenario selection, but a single :class:`~repro.mission.MissionProfile`
is a *summary* (one histogram, one grms figure).  Real vehicles see
correlated excursions: a hot day raises board temperature *and* EMI
susceptibility *and* servo load (air conditioning, fans); a rough road
shakes the harness while the engine bay heats up.  The
:class:`StressSampler` turns the summary back into a population of
concrete environments:

* **correlated marginals** — each trajectory draws ``segments``
  time-slices of four stress channels (temperature / vibration / EMI /
  load) from a user-supplied :class:`CorrelationMatrix` (Cholesky over
  standard normals, PSD-validated at construction).  Temperature maps
  through the profile histogram's inverse CDF, so sampled temperatures
  never leave the histogram's support; vibration and EMI are
  mean-preserving log-normals around the profile values; load is a
  log-normal factor around 1 tilting operating-state selection.
* **temporal persistence** — an AR(1) coefficient carries each
  channel's excursion across segments (weather does not i.i.d.-resample
  every minute).
* **black-swan overlays** — rare events (cold start, thermal runaway,
  EMI burst) with per-event hazard-rate configs; occurrence probability
  is the Poisson ``1 - exp(-rate * exposure_hours)`` and an occurring
  event overlays a contiguous span of segments.

All randomness flows through one explicitly seeded pair — a
``random.Random`` for discrete choices and a ``numpy`` ``Generator``
for the vectorized normal draws — so sampled campaigns stay
checkpoint-resumable and byte-reproducible: the same seed yields the
same trajectory stream on every backend and every restart.

Trajectories are drawn a batch at a time
(:meth:`StressSampler.iter_draws`): one block of normals for the whole
batch, then each sample finished on Python floats as its consumer
reaches it.  A batch of *n* is bit-identical to *n* one-sample
:meth:`~StressSampler.draw` calls, however the stream is cut into
batches.
"""

from __future__ import annotations

import dataclasses
import math
import random
import typing as _t

import numpy as np

from ..mission import (
    EmiProfile,
    MissionProfile,
    TemperatureProfile,
    VibrationProfile,
)
from ..mission.rates import probability_of_at_least_one

#: The four stress channels of a trajectory, in draw order.
CHANNELS = ("temperature", "vibration", "emi", "load")


def _resolve_rng(
    seed: int, rng: _t.Optional[random.Random]
) -> random.Random:
    """Sampling randomness is always an explicit instance.

    Callers either pass their own ``random.Random`` (threading one rng
    through a larger experiment) or a seed from which a private
    instance is built — module-level ``random.*`` state never leaks in
    (VP004/VP012 are the lint rules enforcing the same contract on
    model code).
    """
    return rng if rng is not None else random.Random(seed)


class CorrelationError(ValueError):
    """The supplied correlation matrix is not a valid correlation."""


@dataclasses.dataclass(frozen=True)
class CorrelationMatrix:
    """A validated 4x4 correlation over the stress channels.

    Rows/columns follow :data:`CHANNELS`.  Construction validates
    shape, symmetry, a unit diagonal, entries in [-1, 1], and positive
    semi-definiteness (the Cholesky factor of a slightly ridged copy
    must exist) — a non-PSD "correlation" would silently produce
    complex or garbage draws, so it is rejected with a clear error
    instead.
    """

    values: _t.Tuple[_t.Tuple[float, ...], ...]

    def __post_init__(self):
        matrix = np.asarray(self.values, dtype=float)
        if matrix.shape != (len(CHANNELS), len(CHANNELS)):
            raise CorrelationError(
                f"correlation must be {len(CHANNELS)}x{len(CHANNELS)} "
                f"over {CHANNELS}, got shape {matrix.shape}"
            )
        if not np.allclose(matrix, matrix.T, atol=1e-9):
            raise CorrelationError("correlation matrix is not symmetric")
        if not np.allclose(np.diag(matrix), 1.0, atol=1e-9):
            raise CorrelationError("correlation diagonal must be all ones")
        if np.any(matrix < -1.0 - 1e-9) or np.any(matrix > 1.0 + 1e-9):
            raise CorrelationError("correlation entries must lie in [-1, 1]")
        eigenvalues = np.linalg.eigvalsh(matrix)
        if eigenvalues.min() < -1e-8:
            raise CorrelationError(
                f"correlation matrix is not positive semi-definite "
                f"(min eigenvalue {eigenvalues.min():.3e}); fix the "
                f"off-diagonal entries or project to the nearest PSD "
                f"matrix before sampling"
            )
        object.__setattr__(self, "values", tuple(
            tuple(float(v) for v in row) for row in matrix
        ))

    @classmethod
    def identity(cls) -> "CorrelationMatrix":
        return cls(tuple(
            tuple(1.0 if i == j else 0.0 for j in range(len(CHANNELS)))
            for i in range(len(CHANNELS))
        ))

    @classmethod
    def from_pairs(
        cls, **pairs: float
    ) -> "CorrelationMatrix":
        """Build from named channel pairs, e.g.
        ``from_pairs(temperature_load=0.6, vibration_emi=0.2)``.
        Unnamed pairs default to zero correlation."""
        index = {name: i for i, name in enumerate(CHANNELS)}
        matrix = [
            [1.0 if i == j else 0.0 for j in range(len(CHANNELS))]
            for i in range(len(CHANNELS))
        ]
        for key, value in pairs.items():
            try:
                first, second = key.split("_", 1)
                i, j = index[first], index[second]
            except (ValueError, KeyError):
                raise CorrelationError(
                    f"unknown channel pair {key!r}; use "
                    f"<channel>_<channel> from {CHANNELS}"
                ) from None
            matrix[i][j] = matrix[j][i] = float(value)
        return cls(tuple(tuple(row) for row in matrix))

    def cholesky(self) -> np.ndarray:
        """The lower-triangular factor used for correlated draws.

        A tiny diagonal ridge keeps exactly-singular (but valid) PSD
        matrices factorizable, e.g. two perfectly correlated channels.
        """
        matrix = np.asarray(self.values, dtype=float)
        ridge = 1e-12 * np.eye(len(CHANNELS))
        return np.linalg.cholesky(matrix + ridge)


#: Default cross-stress correlation: heat, load, and EMI rise together
#: (hot day, everything working hard), vibration mildly coupled to load
#: (rough road means active chassis work).
DEFAULT_CORRELATION = CorrelationMatrix((
    (1.0, 0.1, 0.3, 0.5),
    (0.1, 1.0, 0.2, 0.3),
    (0.3, 0.2, 1.0, 0.2),
    (0.5, 0.3, 0.2, 1.0),
))


@dataclasses.dataclass(frozen=True)
class BlackSwanEvent:
    """One rare environmental event with its hazard-rate config.

    ``rate_per_hour`` is the Poisson occurrence rate; per trajectory
    the sampler converts it to an occurrence probability over the
    sampled exposure time.  An occurring event overlays a contiguous
    ``span_fraction`` of the trajectory's segments with the additive
    temperature delta and the multiplicative vibration / EMI / load
    factors.
    """

    name: str
    rate_per_hour: float
    temperature_delta_c: float = 0.0
    vibration_factor: float = 1.0
    emi_factor: float = 1.0
    load_factor: float = 1.0
    span_fraction: float = 0.25

    def __post_init__(self):
        if self.rate_per_hour < 0:
            raise ValueError(f"{self.name!r}: negative hazard rate")
        if not 0.0 < self.span_fraction <= 1.0:
            raise ValueError(f"{self.name!r}: span_fraction out of (0, 1]")
        for field in ("vibration_factor", "emi_factor", "load_factor"):
            if getattr(self, field) < 0:
                raise ValueError(f"{self.name!r}: negative {field}")


#: The default overlay set: a deep-winter cold start, a cooling-failure
#: thermal runaway, and a broadband EMI burst (nearby lightning / radar).
DEFAULT_EVENTS: _t.Tuple[BlackSwanEvent, ...] = (
    BlackSwanEvent(
        "cold_start", rate_per_hour=2e-5,
        temperature_delta_c=-40.0, load_factor=1.5, span_fraction=0.2,
    ),
    BlackSwanEvent(
        "thermal_runaway", rate_per_hour=2e-6,
        temperature_delta_c=60.0, load_factor=1.3, span_fraction=0.3,
    ),
    BlackSwanEvent(
        "emi_burst", rate_per_hour=6e-6,
        emi_factor=8.0, span_fraction=0.1,
    ),
)


@dataclasses.dataclass(frozen=True)
class SampledEnvironment:
    """One drawn environmental trajectory.

    Parallel tuples, one entry per segment; ``events`` names the
    black-swan overlays that occurred (possibly empty).  ``exposure_hours``
    is the per-sample mission exposure the event probabilities were
    computed over — the importance quantity a risk report needs to
    convert per-run failure probabilities back into rates.
    """

    index: int
    temperature_c: _t.Tuple[float, ...]
    vibration_grms: _t.Tuple[float, ...]
    emi_v_per_m: _t.Tuple[float, ...]
    load_factor: _t.Tuple[float, ...]
    events: _t.Tuple[str, ...]
    exposure_hours: float

    @property
    def segments(self) -> int:
        return len(self.temperature_c)

    @property
    def mean_load(self) -> float:
        return sum(self.load_factor) / len(self.load_factor)

    @property
    def peak_temperature_c(self) -> float:
        return max(self.temperature_c)

    def effective_profile(self, base: MissionProfile) -> MissionProfile:
        """The :class:`MissionProfile` this trajectory amounts to.

        Temperature segments fold into an equal-fraction histogram
        (duplicate temperatures accumulate), vibration folds to its
        RMS (fatigue is power-driven), EMI to its maximum (disturbance
        coupling is threshold-driven).  The result feeds
        :func:`repro.mission.derive_stressor_spec` unchanged, which is
        how each sample gets its own rate scaling.
        """
        histogram: _t.Dict[float, float] = {}
        fraction = 1.0 / self.segments
        for temp in self.temperature_c:
            histogram[temp] = histogram.get(temp, 0.0) + fraction
        rms = math.sqrt(
            sum(g * g for g in self.vibration_grms) / self.segments
        )
        return MissionProfile(
            name=f"{base.name}/sample{self.index}",
            level=base.level,
            lifetime_hours=base.lifetime_hours,
            operating_hours=base.operating_hours,
            temperature=TemperatureProfile(histogram),
            vibration=VibrationProfile(rms),
            emi=EmiProfile(max(self.emi_v_per_m)),
            states=base.states,
        )

    def to_jsonable(self) -> _t.Dict[str, _t.Any]:
        return {
            "index": self.index,
            "temperature_c": [round(t, 6) for t in self.temperature_c],
            "vibration_grms": [round(g, 6) for g in self.vibration_grms],
            "emi_v_per_m": [round(e, 6) for e in self.emi_v_per_m],
            "load_factor": [round(f, 6) for f in self.load_factor],
            "events": list(self.events),
            "exposure_hours": self.exposure_hours,
        }


def _histogram_inverse_cdf(
    histogram: _t.Mapping[float, float],
) -> _t.Callable[[float], float]:
    """Quantile function of a temperature histogram.

    Step-wise inverse CDF over the histogram's *own support*: every
    returned temperature is one of the histogram keys, which is what
    keeps sampled marginals inside the profile's declared envelope
    (property-test pinned).
    """
    temps = sorted(histogram)
    cumulative: _t.List[_t.Tuple[float, float]] = []
    running = 0.0
    for temp in temps:
        running += histogram[temp]
        cumulative.append((running, temp))

    def inverse(quantile: float) -> float:
        for edge, temp in cumulative:
            if quantile <= edge:
                return temp
        return cumulative[-1][1]

    return inverse


class StressSampler:
    """Draws whole correlated environmental trajectories from a profile.

    Parameters
    ----------
    profile:
        The mission profile supplying the marginal envelopes (its
        temperature histogram, vibration grms, EMI field) and the
        exposure time black-swan probabilities are computed over.
    correlation:
        Cross-channel :class:`CorrelationMatrix`
        (default :data:`DEFAULT_CORRELATION`).
    sigma:
        Log-normal shape parameters per multiplicative channel,
        ``(vibration, emi, load)``; larger spreads the marginal.
    segments:
        Time-slices per trajectory.
    persistence:
        AR(1) coefficient in [0, 1) carrying excursions across
        segments.
    events:
        Black-swan overlay configs (default :data:`DEFAULT_EVENTS`).
    hours_per_sample:
        Exposure hours one trajectory represents; default
        ``profile.operating_hours`` (each sample is one candidate
        vehicle life).
    seed / rng:
        Explicit randomness, :func:`_resolve_rng` convention — passing
        *rng* overrides *seed*.  The numpy ``Generator`` powering the
        vectorized normal draws is derived from the same stream, so
        one seed pins the whole trajectory sequence.
    """

    def __init__(
        self,
        profile: MissionProfile,
        correlation: CorrelationMatrix = DEFAULT_CORRELATION,
        sigma: _t.Tuple[float, float, float] = (0.25, 0.35, 0.20),
        segments: int = 8,
        persistence: float = 0.6,
        events: _t.Sequence[BlackSwanEvent] = DEFAULT_EVENTS,
        hours_per_sample: _t.Optional[float] = None,
        seed: int = 0,
        rng: _t.Optional[random.Random] = None,
    ):
        if segments < 1:
            raise ValueError("need at least one segment per trajectory")
        if not 0.0 <= persistence < 1.0:
            raise ValueError("persistence out of [0, 1)")
        if any(s < 0 for s in sigma):
            raise ValueError("negative sigma")
        names = [event.name for event in events]
        if len(set(names)) != len(names):
            raise ValueError("duplicate black-swan event names")
        self.profile = profile
        self.correlation = correlation
        self.sigma = tuple(float(s) for s in sigma)
        self.segments = segments
        self.persistence = float(persistence)
        self.events = tuple(events)
        self.hours_per_sample = (
            profile.operating_hours
            if hours_per_sample is None else float(hours_per_sample)
        )
        if self.hours_per_sample < 0:
            raise ValueError("negative exposure hours")
        self._event_probabilities = tuple(
            probability_of_at_least_one(
                event.rate_per_hour, self.hours_per_sample
            )
            for event in self.events
        )
        self.rng = _resolve_rng(seed, rng)
        # The vectorized normal stream derives from the discrete one,
        # so a single (seed | rng) argument pins both.
        self._normals = np.random.Generator(
            np.random.PCG64(self.rng.randrange(2**63))
        )
        self._cholesky = correlation.cholesky()
        self._inverse_cdf = _histogram_inverse_cdf(
            profile.temperature.histogram
        )
        self._drawn = 0

    # -- trajectories -------------------------------------------------------

    def iter_draws(self, count: int) -> _t.Iterator[SampledEnvironment]:
        """The next *count* trajectories of the seeded stream.

        All ``count`` blocks of correlated normals come from one
        ``standard_normal`` call, one stacked Cholesky product (each
        sample keeps its own ``(segments, 4) @ (4, 4)`` product, so the
        rounding is that of a one-sample draw), one AR(1) pass over the
        segments and one ``tolist`` per channel.  Each sample is then
        finished — ``math.erf``/``math.exp`` marginals and black-swan
        rolls on :attr:`rng` — only when the consumer reaches it, so a
        planner sharing :attr:`rng` sees its own draws interleaved
        exactly as with one :meth:`draw` per sample.  A batch of *n* is
        therefore bit-identical to *n* one-sample calls as long as each
        iterator is consumed before the next draw starts; abandoning one
        early still consumes its whole block of normals.
        """
        if count <= 0:
            return
        white = self._normals.standard_normal(
            (count, self.segments, len(CHANNELS))
        )
        correlated = white @ self._cholesky.T
        if self.persistence > 0.0 and self.segments > 1:
            carry = math.sqrt(1.0 - self.persistence**2)
            for t in range(1, self.segments):
                correlated[:, t] = (
                    self.persistence * correlated[:, t - 1]
                    + carry * correlated[:, t]
                )
        # Per channel, the argument of its scalar erf or exp: the normal
        # CDF's z / sqrt(2), then the log-normal exponents.  These affine
        # steps are single IEEE operations, so numpy rounds them as
        # Python floats would; erf and exp stay math calls, since np.exp
        # may differ in the last ulp.  Flat lists sliced per sample, not
        # one nested list per sample: a garbage collection that runs
        # mid-batch then has no block of per-sample lists to promote.
        sigma_vib, sigma_emi, sigma_load = self.sigma
        erf_args = (correlated[..., 0] / math.sqrt(2.0)).ravel().tolist()
        vibration_exps = (
            sigma_vib * correlated[..., 1] - sigma_vib**2 / 2
        ).ravel().tolist()
        emi_exps = (
            sigma_emi * correlated[..., 2] - sigma_emi**2 / 2
        ).ravel().tolist()
        load_exps = (
            sigma_load * correlated[..., 3] - sigma_load**2 / 2
        ).ravel().tolist()
        for start in range(0, count * self.segments, self.segments):
            stop = start + self.segments
            yield self._finish(
                erf_args[start:stop], vibration_exps[start:stop],
                emi_exps[start:stop], load_exps[start:stop],
            )

    def _finish(
        self,
        erf_args: _t.List[float],
        vibration_exps: _t.List[float],
        emi_exps: _t.List[float],
        load_exps: _t.List[float],
    ) -> SampledEnvironment:
        """One trajectory from its per-channel erf / exp arguments."""
        # Normal quantile -> histogram inverse CDF keeps temperature
        # inside the profile's support; the multiplicative channels are
        # mean-preserving log-normals around the profile values.
        inverse_cdf = self._inverse_cdf
        grms = self.profile.vibration.grms
        field = self.profile.emi.field_v_per_m
        temperature = [
            inverse_cdf(0.5 * (1.0 + math.erf(x))) for x in erf_args
        ]
        vibration = [grms * math.exp(x) for x in vibration_exps]
        emi = [field * math.exp(x) for x in emi_exps]
        load = [math.exp(x) for x in load_exps]

        occurred = [
            event
            for event, probability in zip(
                self.events, self._event_probabilities
            )
            if self.rng.random() < probability
        ]
        for event in occurred:
            span = max(1, round(event.span_fraction * self.segments))
            start = self.rng.randrange(max(1, self.segments - span + 1))
            for t in range(start, min(start + span, self.segments)):
                temperature[t] += event.temperature_delta_c
                vibration[t] *= event.vibration_factor
                emi[t] *= event.emi_factor
                load[t] *= event.load_factor

        environment = SampledEnvironment(
            index=self._drawn,
            temperature_c=tuple(temperature),
            vibration_grms=tuple(vibration),
            emi_v_per_m=tuple(emi),
            load_factor=tuple(load),
            events=tuple(event.name for event in occurred),
            exposure_hours=self.hours_per_sample,
        )
        self._drawn += 1
        return environment

    def draw(self) -> SampledEnvironment:
        """Draw the next trajectory in the seeded stream."""
        return next(self.iter_draws(1))

    def draw_many(self, count: int) -> _t.List[SampledEnvironment]:
        """The next *count* trajectories (none for ``count <= 0``)."""
        return list(self.iter_draws(count))
