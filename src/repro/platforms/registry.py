"""Named platform bundles — the cross-process factory registry.

Parallel campaign execution (``repro.core.executors``) fans
:class:`~repro.core.runspec.RunSpec` objects out to worker processes.
A worker cannot receive the platform *factory itself* (factories close
over modules, classifiers over lambdas — none of that pickles), so a
spec carries only a **platform key** and each worker resolves the key
against this registry, building its own private prototype instance.

A bundle names the three callables a campaign needs:

* ``factory(sim) -> Module`` — builds a fresh platform into *sim*;
* ``observe(root) -> RunObservation`` — probes it after a run;
* ``classifier_factory() -> Classifier`` — builds the outcome rules
  (a factory, not an instance, because classifiers hold lambdas and
  must be constructed on the consuming side).

An optional fourth callable, ``trace_signals(root) -> {name: signal}``,
nominates the kernel signals the observability layer
(:mod:`repro.observe`) watches when a campaign runs with ``trace=`` —
the platform knows which of its signals carry safety-relevant state;
the trace machinery should not have to guess.

An optional pair, ``capture_state(root) -> state`` and
``restore_state(root, state)``, covers every piece of module-level
state (memory images, component counters, latched actuators).  With
it a worker elaborates the platform once, captures kernel and module
state right after the factory returns, and restores that capture
before every run (**warm reuse**), and runs sharing a fault-free
prefix fork from a capture taken at its end (**snapshot-fork**).
Bundles without the pair (``forkable == False``), and platforms whose
factory leaves a bare-generator process alive, are rebuilt from
scratch for every run — correct by construction, just slower.  A
``reset`` hook is still accepted and stored, but nothing reads it.

Registration must happen at **module import time** so that worker
processes — which re-import the registering module under ``spawn``
start methods — see the same catalogue as the parent.  The built-in
automotive prototypes are registered by ``repro.platforms.__init__``.
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.classification import Classifier, RunObservation
    from ..kernel import Module, Simulator


class PlatformBundle(_t.NamedTuple):
    """Everything a worker needs to rebuild and judge one platform."""

    name: str
    factory: "_t.Callable[[Simulator], Module]"
    observe: "_t.Callable[[Module], RunObservation]"
    classifier_factory: "_t.Callable[[], Classifier]"
    description: str = ""
    #: Optional ``root -> {name: signal}``; ``None`` = nothing watched.
    trace_signals: _t.Optional[_t.Callable] = None
    #: Accepted and kept readable for older callers; nothing reads it.
    reset: _t.Optional[_t.Callable] = None
    #: Optional ``root -> state`` deep-capturing module-level state at a
    #: scheduling boundary; pairs with ``restore_state`` to opt the
    #: platform into warm reuse and snapshot-fork execution.  ``None`` =
    #: rebuilt fresh for every run.
    capture_state: _t.Optional[_t.Callable] = None
    #: Optional ``(root, state) -> None`` re-seeding module-level state
    #: from a ``capture_state`` capture.  Must tolerate being applied
    #: repeatedly from the same capture (fresh copies every call).
    restore_state: _t.Optional[_t.Callable] = None
    #: Optional ``root -> {"detectors": {mechanism: [module]},
    #: "outputs": [module-or-signal]}`` declaring the platform's
    #: *observation surface* for static reachability analysis
    #: (:mod:`repro.analyze.reach`): the detector components beyond
    #: the auto-discovered ``DETECTION_MECHANISMS`` declarations, and
    #: every module/signal the ``observe`` probe or the classifier
    #: reads.  ``None`` = surface unknown — the analyzer then refuses
    #: to call any fault site dead, so pruning degrades to a no-op
    #: instead of silently skipping live injections.
    reach_surface: _t.Optional[_t.Callable] = None

    @property
    def forkable(self) -> bool:
        """True when the platform opts into warm reuse and fork."""
        return self.capture_state is not None and self.restore_state is not None


_REGISTRY: _t.Dict[str, PlatformBundle] = {}

#: Per-process classifier cache: classifiers are stateless rule lists,
#: so one instance per (process, platform) serves every run.
_CLASSIFIERS: _t.Dict[str, "Classifier"] = {}


def register_platform(
    name: str,
    factory,
    observe,
    classifier_factory,
    description: str = "",
    trace_signals=None,
    reset=None,
    capture_state=None,
    restore_state=None,
    reach_surface=None,
    replace: bool = False,
) -> PlatformBundle:
    """Register a platform bundle under *name*.

    Re-registering an existing name requires ``replace=True`` — silent
    shadowing would make parent and worker processes disagree about
    what a key means.  *reset* is accepted and stored so older callers
    keep working, but ignored: warm reuse needs the capture pair.
    """
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"platform {name!r} is already registered; "
            f"pass replace=True to override"
        )
    if (capture_state is None) != (restore_state is None):
        raise ValueError(
            f"platform {name!r}: capture_state and restore_state must "
            f"be provided together"
        )
    bundle = PlatformBundle(
        name, factory, observe, classifier_factory, description,
        trace_signals, reset, capture_state, restore_state,
        reach_surface,
    )
    _REGISTRY[name] = bundle
    _CLASSIFIERS.pop(name, None)
    return bundle


def get_platform(name: str) -> PlatformBundle:
    """Resolve *name*; raises ``KeyError`` listing what is available."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY)) or '(none)'}"
        ) from None


def get_classifier(name: str):
    """The per-process cached classifier instance for *name*."""
    classifier = _CLASSIFIERS.get(name)
    if classifier is None:
        classifier = get_platform(name).classifier_factory()
        _CLASSIFIERS[name] = classifier
    return classifier


def available_platforms() -> _t.Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))
